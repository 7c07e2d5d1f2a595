(* Tests for rf_util: PRNG determinism/distribution, site interning,
   location identity, the JSON codec. *)

open Rf_util

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 10 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "different streams differ" false (xs = ys)

let test_prng_int_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 1000 do
    let n = Prng.int p 13 in
    Alcotest.(check bool) "0 <= n" true (n >= 0);
    Alcotest.(check bool) "n < 13" true (n < 13)
  done

let test_prng_int_invalid () =
  let p = Prng.create 0 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int p 0))

let test_prng_bool_both_values () =
  let p = Prng.create 3 in
  let trues = ref 0 and falses = ref 0 in
  for _ = 1 to 200 do
    if Prng.bool p then incr trues else incr falses
  done;
  Alcotest.(check bool) "some trues" true (!trues > 30);
  Alcotest.(check bool) "some falses" true (!falses > 30)

let test_prng_float_range () =
  let p = Prng.create 9 in
  for _ = 1 to 1000 do
    let f = Prng.float p in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_copy_independent () =
  let p = Prng.create 5 in
  ignore (Prng.next_int64 p);
  let q = Prng.copy p in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 p)
    (Prng.next_int64 q)

let test_prng_split_diverges () =
  let p = Prng.create 11 in
  let q = Prng.split p in
  let xs = List.init 5 (fun _ -> Prng.next_int64 p) in
  let ys = List.init 5 (fun _ -> Prng.next_int64 q) in
  Alcotest.(check bool) "split stream differs" false (xs = ys)

let test_prng_pick () =
  let p = Prng.create 13 in
  let l = [ 1; 2; 3; 4; 5 ] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "pick from list" true (List.mem (Prng.pick p l) l)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Prng.pick p []))

let test_prng_shuffle_permutation () =
  let p = Prng.create 17 in
  let a = Array.init 20 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* Uniformity property: counts of Prng.int over [0,4) are roughly equal. *)
let test_prng_rough_uniformity () =
  let p = Prng.create 23 in
  let counts = Array.make 4 0 in
  let n = 4000 in
  for _ = 1 to n do
    let i = Prng.int p 4 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket count %d close to %d" c (n / 4))
        true
        (abs (c - (n / 4)) < n / 10))
    counts

(* Known answers: SplitMix64's first outputs (seed 0 is the reference
   generator's published first value) and one int/bool draw sequence.
   Every recorded schedule and golden fingerprint depends on this exact
   stream, so any change to the generator's representation must keep it. *)
let test_prng_known_answers () =
  List.iter
    (fun (seed, expected) ->
      let p = Prng.create seed in
      List.iter
        (fun x -> Alcotest.(check int64) (Printf.sprintf "seed %d" seed) x (Prng.next_int64 p))
        expected)
    [
      (0, [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]);
      (1, [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL ]);
      (42, [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L ]);
    ];
  let p = Prng.create 7 in
  let ints = List.init 8 (fun i -> Prng.int p (i + 2)) in
  let bools = List.init 8 (fun _ -> Prng.bool p) in
  Alcotest.(check (list int)) "int draws" [ 1; 0; 2; 0; 0; 6; 6; 8 ] ints;
  Alcotest.(check (list bool)) "bool draws"
    [ true; true; true; false; false; false; false; false ]
    bools;
  Alcotest.(check int64) "state after 16 draws" 0xE3779B97F4A7C157L (Prng.state p)

(* [state] / [of_int64] / [set_state] round trips; [state] hands back the
   very box it was given until the next draw (the schedule recorder
   shares it with the replayer instead of copying it). *)
let test_prng_state_roundtrip () =
  let p = Prng.create 42 in
  ignore (Prng.next_int64 p);
  let s = Prng.state p in
  let q = Prng.of_int64 s in
  Alcotest.(check int64) "of_int64 continues the stream" (Prng.next_int64 p)
    (Prng.next_int64 q);
  Alcotest.(check bool) "of_int64 keeps the box" true (Prng.state (Prng.of_int64 s) == s);
  let r = Prng.create 0 in
  Prng.set_state r s;
  Alcotest.(check bool) "set_state keeps the box" true (Prng.state r == s);
  Alcotest.(check int64) "set_state rewinds" 0x28EFE333B266F103L (Prng.next_int64 r);
  Alcotest.(check int64) "state after a draw" (Prng.state q) (Prng.state r);
  let again = Prng.state r in
  Alcotest.(check bool) "state is stable between draws" true (Prng.state r == again)

(* The scheduler draws at every switch, so a draw must not allocate. *)
let test_prng_draws_allocate_nothing () =
  let p = Prng.create 3 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    acc := !acc + Prng.int p (1 + (i land 63));
    if Prng.bool p then incr acc
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 20000 draws" words) true (words < 100.)

(* ------------------------------------------------------------------ *)
(* Site                                                                *)

let test_site_interning () =
  let a = Site.make ~file:"f.rfl" ~line:3 "x=1" in
  let b = Site.make ~file:"f.rfl" ~line:3 "x=1" in
  Alcotest.(check bool) "same key interned" true (Site.equal a b);
  Alcotest.(check int) "same id" (Site.id a) (Site.id b)

let test_site_distinct () =
  let a = Site.make ~file:"f.rfl" ~line:3 "x=1" in
  let b = Site.make ~file:"f.rfl" ~line:4 "x=1" in
  Alcotest.(check bool) "different lines distinct" false (Site.equal a b)

let test_site_find_by_id () =
  let a = Site.make ~file:"g.rfl" ~line:9 "y=2" in
  match Site.find_by_id (Site.id a) with
  | Some b -> Alcotest.(check bool) "roundtrip" true (Site.equal a b)
  | None -> Alcotest.fail "site not found by id"

let test_site_pair_normalized () =
  let a = Site.make ~file:"p.rfl" ~line:1 "a" in
  let b = Site.make ~file:"p.rfl" ~line:2 "b" in
  let p1 = Site.Pair.make a b and p2 = Site.Pair.make b a in
  Alcotest.(check bool) "unordered equal" true (Site.Pair.equal p1 p2);
  Alcotest.(check int) "normalized fst" (Site.id (Site.Pair.fst p1))
    (Site.id (Site.Pair.fst p2))

let test_site_pair_reflexive () =
  let a = Site.make ~file:"p.rfl" ~line:7 "self" in
  let p = Site.Pair.make a a in
  Alcotest.(check bool) "mem" true (Site.Pair.mem a p);
  match Site.Pair.other a p with
  | Some b -> Alcotest.(check bool) "other of reflexive" true (Site.equal a b)
  | None -> Alcotest.fail "other none"

let test_site_pair_other () =
  let a = Site.make ~file:"p.rfl" ~line:10 "a" in
  let b = Site.make ~file:"p.rfl" ~line:11 "b" in
  let c = Site.make ~file:"p.rfl" ~line:12 "c" in
  let p = Site.Pair.make a b in
  (match Site.Pair.other a p with
  | Some x -> Alcotest.(check bool) "other a = b" true (Site.equal x b)
  | None -> Alcotest.fail "other none");
  Alcotest.(check bool) "c not in pair" false (Site.Pair.mem c p);
  Alcotest.(check bool) "other c none" true (Site.Pair.other c p = None)

(* Interning priority.  Every step is ordered by the gate itself, not by
   timing: the other domain is known to be parked at the gate (it is
   counted in [Site.waiting]) before the holder interns anything.  A gate
   that lets the miss through ends the wait too, and fails the check. *)
let parked ~returned =
  while Site.waiting () = 0 && not (Atomic.get returned) do
    Domain.cpu_relax ()
  done

let test_site_priority_orders_ids () =
  let returned = Atomic.make false in
  let other, mine =
    Site.with_priority (fun () ->
        let other =
          Domain.spawn (fun () ->
              let s = Site.make ~file:"prio.rfl" ~line:2 "late" in
              Atomic.set returned true;
              s)
        in
        parked ~returned;
        Alcotest.(check bool) "a miss waits while priority is held" false
          (Atomic.get returned);
        let mine = Site.make ~file:"prio.rfl" ~line:1 "early" in
        Alcotest.(check bool) "still waiting after the holder interns another site"
          false (Atomic.get returned);
        (other, mine))
  in
  let late = Domain.join other in
  Alcotest.(check bool) "the holder's site gets the lower id" true
    (Site.id mine < Site.id late);
  Alcotest.(check int) "nobody left waiting" 0 (Site.waiting ())

(* A waiter whose site the holder interns gets the holder's site at
   once, without waiting for the priority to end. *)
let test_site_priority_shares_holder_site () =
  let returned = Atomic.make false in
  Site.with_priority (fun () ->
      let other =
        Domain.spawn (fun () ->
            let s = Site.make ~file:"prio.rfl" ~line:4 "shared" in
            Atomic.set returned true;
            s)
      in
      parked ~returned;
      let mine = Site.make ~file:"prio.rfl" ~line:4 "shared" in
      (* bounded, so a gate that only wakes at the end fails, not hangs *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while (not (Atomic.get returned)) && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check bool) "the waiter returns while priority is held" true
        (Atomic.get returned);
      Alcotest.(check bool) "the waiter gets the holder's site" true
        (Site.equal mine (Domain.join other)))

let test_site_priority_hits_pass () =
  let known = Site.make ~file:"prio.rfl" ~line:3 "known" in
  let got, stalled =
    Site.with_priority (fun () ->
        Domain.join
          (Domain.spawn (fun () ->
               let s = Site.make ~file:"prio.rfl" ~line:3 "known" in
               (s, Site.stalled ()))))
  in
  Alcotest.(check bool) "a hit returns the interned site" true (Site.equal known got);
  Alcotest.(check (float 0.0)) "a hit never waits" 0.0 stalled;
  Alcotest.check_raises "re-entering priority"
    (Invalid_argument "Site.with_priority: re-entered") (fun () ->
      Site.with_priority (fun () -> Site.with_priority ignore))

(* A hit allocates nothing in [Site.make]: what a call still costs is the
   caller's [Some] box for each optional argument it passes that is not a
   constant (here [~line], 2 words).  A locked registry lookup built a
   key tuple, a closure and an option on every call: 13 words with
   [~file ~line] and 11 with the defaults. *)
let test_site_hit_allocates_nothing () =
  let line = Sys.opaque_identity 41 in
  let per_call f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. w0) /. 1000.
  in
  let with_args = per_call (fun () -> Site.make ~file:"hit.rfl" ~line "hot") in
  let defaults = per_call (fun () -> Site.make "hot-default") in
  Alcotest.(check bool) (Printf.sprintf "%.1f words with ~file ~line" with_args) true
    (with_args <= 3.);
  Alcotest.(check bool) (Printf.sprintf "%.1f words with the defaults" defaults) true
    (defaults < 0.5)

(* ------------------------------------------------------------------ *)
(* Loc                                                                 *)

let test_loc_identity () =
  Loc.reset_counter ();
  let o1 = Loc.fresh_obj () and o2 = Loc.fresh_obj () in
  Alcotest.(check bool) "fresh objects distinct" false (o1 = o2);
  Alcotest.(check bool) "same field same loc" true
    (Loc.equal (Loc.field o1 "f") (Loc.field o1 "f"));
  Alcotest.(check bool) "diff field diff loc" false
    (Loc.equal (Loc.field o1 "f") (Loc.field o1 "g"));
  Alcotest.(check bool) "diff obj diff loc" false
    (Loc.equal (Loc.field o1 "f") (Loc.field o2 "f"))

let test_loc_reset_determinism () =
  Loc.reset_counter ();
  let a = Loc.fresh_obj () in
  Loc.reset_counter ();
  let b = Loc.fresh_obj () in
  Alcotest.(check int) "counter reset" a b

let test_loc_kinds_distinct () =
  let g = Loc.global "x" and f = Loc.field 0 "x" and e = Loc.elem 0 0 in
  Alcotest.(check bool) "global/field" false (Loc.equal g f);
  Alcotest.(check bool) "field/elem" false (Loc.equal f e);
  Alcotest.(check bool) "elem identity" true (Loc.equal e (Loc.elem 0 0));
  Alcotest.(check bool) "elem index" false (Loc.equal e (Loc.elem 0 1))

let test_loc_compare_consistent () =
  let locs = [ Loc.global "a"; Loc.global "b"; Loc.field 1 "f"; Loc.elem 2 3 ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let c = Loc.compare x y in
          Alcotest.(check bool) "equal iff compare 0" (Loc.equal x y) (c = 0);
          Alcotest.(check int) "antisymmetric" (-c) (Loc.compare y x))
        locs)
    locs

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"prng int always in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let n = Prng.int p bound in
      n >= 0 && n < bound)

let prop_site_pair_commutative =
  QCheck.Test.make ~name:"site pair construction commutative" ~count:200
    QCheck.(pair small_int small_int)
    (fun (i, j) ->
      let a = Site.make ~file:"q.rfl" ~line:(i mod 50) "s" in
      let b = Site.make ~file:"q.rfl" ~line:(j mod 50) "s" in
      Site.Pair.equal (Site.Pair.make a b) (Site.Pair.make b a))

(* Four domains intern overlapping key sets, each in its own order, into
   a fresh file, so they race on the same misses; many keys share a
   position and differ only in their label, as [Api]'s default sites do.
   Each key ends up with one physical site, ids stay dense and unique,
   and [find_by_id] returns the same site. *)
let site_round = Atomic.make 0

let prop_site_domains_intern_once =
  QCheck.Test.make ~name:"4 domains intern each key once" ~count:40
    QCheck.(pair (list_of_size (Gen.int_range 1 40) (triple (int_bound 5) (int_bound 2) (int_bound 5))) int)
    (fun (keys, seed) ->
      let file = Printf.sprintf "race%d.rfl" (Atomic.fetch_and_add site_round 1) in
      let labels = [| "lock"; "join"; "wait"; "sync"; "x(read)"; "x(write)" |] in
      let keys = List.sort_uniq compare keys in
      let make (line, col, l) = Site.make ~file ~line ~col labels.(l) in
      let orders =
        List.init 4 (fun d ->
            let p = Prng.create (seed + d) in
            (* each domain takes an overlapping subset in a shuffled order *)
            List.filter (fun _ -> Prng.int p 4 > 0) keys
            |> List.map (fun k -> (Prng.int p 1_000_000, k))
            |> List.sort compare |> List.map snd)
      in
      let got =
        List.map (fun order -> Domain.spawn (fun () -> List.map (fun k -> (k, make k)) order)) orders
        |> List.concat_map Domain.join
      in
      let sites = List.map (fun k -> (k, make k)) keys in
      let one_site = List.for_all (fun (k, s) -> List.assoc k sites == s) got in
      let ids = List.map (fun (_, s) -> Site.id s) sites in
      let unique = List.length (List.sort_uniq compare ids) = List.length ids in
      let by_id =
        List.for_all
          (fun (_, s) -> match Site.find_by_id (Site.id s) with Some s' -> s' == s | None -> false)
          sites
      in
      let top = List.fold_left max 0 ids in
      let dense = List.for_all (fun i -> Site.find_by_id i <> None) (List.init (top + 1) Fun.id) in
      one_site && unique && by_id && dense)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let json_value = Alcotest.testable (fun ppf _ -> Fmt.string ppf "<json>") ( = )

let test_json_round_trip () =
  let fields =
    Json.
      [
        ("i", I (-42));
        ("f", F 0.125);
        ("s", S "q\"b\\s\nn\tt\r\001é");
        ("b", B false);
        ("n", Null);
      ]
  in
  let text = Json.render_flat fields in
  Alcotest.(check string) "rendering"
    {|{"i":-42,"f":0.125000,"s":"q\"b\\s\nn\tt\r\u0001é","b":false,"n":null}|} text;
  Alcotest.check json_value "parses back" (Json.O fields) (Json.parse text);
  let nested = {| {"a" : [1, [], {}] ,"o":{ "k":"" }}
|} in
  Alcotest.check json_value "nested values, whitespace between tokens"
    Json.(O [ ("a", A [ I 1; A []; O [] ]); ("o", O [ ("k", S "") ]) ])
    (Json.parse nested)

let test_json_strict () =
  let rejected s =
    match Json.parse s with
    | _ -> Alcotest.failf "accepted %S" s
    | exception Json.Error _ ->
        Alcotest.(check bool) (s ^ " is not flat") true (Json.parse_flat s = None)
  in
  List.iter rejected
    [
      {|{"race":txyz}|};
      {|{"race":fals!}|};
      {|{"x":nope}|};
      {|{"a":1} trailing|};
      {|{"a":1}}|};
      {|{"a":1,}|};
      {|{"a" 1}|};
      {|{"a":"\q"}|};
      {|{"a":1|};
      {|{"a":--1}|};
      "";
    ];
  Alcotest.(check bool) "nested is not flat" true (Json.parse_flat {|{"a":[1]}|} = None);
  Alcotest.(check bool) "array is not flat" true (Json.parse_flat "[1]" = None);
  Alcotest.(check bool) "\\u above 0x7f kept as text" true
    (Json.parse {|"\u00e9"|} = Json.S "\\u00e9")

let () =
  Alcotest.run "rf_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid bound" `Quick test_prng_int_invalid;
          Alcotest.test_case "bool both values" `Quick test_prng_bool_both_values;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_prng_split_diverges;
          Alcotest.test_case "pick" `Quick test_prng_pick;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "rough uniformity" `Quick test_prng_rough_uniformity;
          Alcotest.test_case "known answers" `Quick test_prng_known_answers;
          Alcotest.test_case "state roundtrip" `Quick test_prng_state_roundtrip;
          Alcotest.test_case "draws allocate nothing" `Quick test_prng_draws_allocate_nothing;
          QCheck_alcotest.to_alcotest prop_prng_int_in_range;
        ] );
      ( "site",
        [
          Alcotest.test_case "interning" `Quick test_site_interning;
          Alcotest.test_case "distinct" `Quick test_site_distinct;
          Alcotest.test_case "find by id" `Quick test_site_find_by_id;
          Alcotest.test_case "pair normalized" `Quick test_site_pair_normalized;
          Alcotest.test_case "pair reflexive" `Quick test_site_pair_reflexive;
          Alcotest.test_case "pair other/mem" `Quick test_site_pair_other;
          Alcotest.test_case "priority orders ids" `Quick test_site_priority_orders_ids;
          Alcotest.test_case "priority lets hits pass" `Quick test_site_priority_hits_pass;
          Alcotest.test_case "hit allocates nothing" `Quick test_site_hit_allocates_nothing;
          Alcotest.test_case "priority shares the holder's site" `Quick
            test_site_priority_shares_holder_site;
          QCheck_alcotest.to_alcotest prop_site_pair_commutative;
          QCheck_alcotest.to_alcotest prop_site_domains_intern_once;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "strict" `Quick test_json_strict;
        ] );
      ( "loc",
        [
          Alcotest.test_case "identity" `Quick test_loc_identity;
          Alcotest.test_case "reset determinism" `Quick test_loc_reset_determinism;
          Alcotest.test_case "kinds distinct" `Quick test_loc_kinds_distinct;
          Alcotest.test_case "compare consistent" `Quick test_loc_compare_consistent;
        ] );
    ]
