(* The epoch-keyed history core against a full-vector-clock reference.

   Access histories store one epoch per summary and decide concurrency
   with one array read ([Hbclock.hb_before]).  The reference below is the
   textbook construction instead: every event gets a full vector clock
   snapshot, summaries keep those snapshots, and two accesses are
   concurrent iff neither clock is [leq] the other.  Its retention
   (drop-oldest cap with supersession, the governor's hash reservoir
   rung, algorithm R sampling), accounting and compaction are written
   out independently, as plain lists.

   On traces of generated RFL programs the hybrid, hb-precise and
   sampling instances must agree with the reference on race lists
   (witnesses included), pair sets, retained-entry counts, miss bounds
   and the governor's final rung — ungoverned, and under small budgets
   that force the Sampled and Lockset-only rungs. *)

open Rf_util
open Rf_events
open Rf_vclock
open Rf_resource
module D = Rf_detect

(* ------------------------------------------------------------------ *)
(* Reference: full clocks per event                                    *)

let concurrent a b = (not (Vclock.leq a b)) && not (Vclock.leq b a)

module Ref_hb = struct
  type t = {
    lock_edges : bool;
    governor : Governor.t option;
    threads : (int, Vclock.t) Hashtbl.t;
    msgs : (int, Vclock.t) Hashtbl.t;
    locks : (int, Vclock.t) Hashtbl.t;
  }

  let charge t = match t.governor with Some g -> Governor.charge g 1 | None -> ()

  let create ?governor ~lock_edges () =
    let t =
      {
        lock_edges;
        governor;
        threads = Hashtbl.create 16;
        msgs = Hashtbl.create 16;
        locks = Hashtbl.create 16;
      }
    in
    (match governor with
    | Some g ->
        Governor.subscribe g (fun _ ->
            let n = Hashtbl.length t.msgs in
            if n > 1 then begin
              let keys = List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) t.msgs []) in
              List.iteri (fun i k -> if i < n / 2 then Hashtbl.remove t.msgs k) keys;
              Governor.evict g (n / 2)
            end)
    | None -> ());
    t

  (* The event's full clock, as a snapshot. *)
  let feed t ev =
    let tid = Event.tid ev in
    let known = Hashtbl.find_opt t.threads tid in
    let c = match known with Some c -> Vclock.copy c | None -> Vclock.create () in
    (match ev with
    | Event.Rcv { msg; _ } -> Option.iter (Vclock.join c) (Hashtbl.find_opt t.msgs msg)
    | Event.Acquire { lock; _ } when t.lock_edges ->
        Option.iter (Vclock.join c) (Hashtbl.find_opt t.locks lock)
    | _ -> ());
    Vclock.tick c tid;
    if known = None then charge t;
    Hashtbl.replace t.threads tid c;
    (match ev with
    | Event.Snd { msg; _ } ->
        if not (Hashtbl.mem t.msgs msg) then charge t;
        Hashtbl.replace t.msgs msg c
    | Event.Release { lock; _ } when t.lock_edges ->
        if not (Hashtbl.mem t.locks lock) then charge t;
        Hashtbl.replace t.locks lock c
    | _ -> ());
    c
end

type retention = Cap of int | Reservoir of int * int

module Ref = struct
  type entry = {
    tid : int;
    site : Site.t;
    access : Event.access;
    lockset : Lockset.t;
    vc : Vclock.t;
  }

  type bucket = {
    mutable entries : entry list;  (* Cap: newest first; Reservoir: slot order *)
    mutable seen : int;
    mutable last : int;
    id : int;
  }

  type t = {
    hb : Ref_hb.t;
    governor : Governor.t option;
    disjoint : bool;
    retention : retention;
    history : bucket Loc.Tbl.t;
    mutable races : D.Race.t list;
    mutable reported : Site.Pair.Set.t;
    mutable charged : int;
    mutable mem_events : int;
    mutable next_id : int;
    mutable shed_buckets : int;
    mutable truncations : int;
  }

  let charge t =
    t.charged <- t.charged + 1;
    Option.iter (fun g -> Governor.charge g 1) t.governor

  (* Release [n] entries: superseded ones are credited, dropped ones
     evicted (and counted as truncations). *)
  let release t ~dropped n =
    if n > 0 then begin
      t.charged <- max 0 (t.charged - n);
      if dropped then t.truncations <- t.truncations + n;
      Option.iter
        (fun g -> if dropped then Governor.evict g n else Governor.credit g n)
        t.governor
    end

  let level t = match t.governor with Some g -> Governor.level g | None -> Governor.Full

  let compact t g =
    let target =
      match Governor.budget g with Some b -> max 1 (b / 2) | None -> max 1 (t.charged / 2)
    in
    Loc.Tbl.fold (fun loc b acc -> (loc, b) :: acc) t.history []
    |> List.sort (fun (_, a) (_, b) -> compare (a.last, a.id) (b.last, b.id))
    |> List.iter (fun (loc, b) ->
           if t.charged > target then begin
             Loc.Tbl.remove t.history loc;
             release t ~dropped:true (List.length b.entries);
             t.shed_buckets <- t.shed_buckets + 1
           end)

  let create ?governor ~lock_edges ~disjoint retention =
    let t =
      {
        hb = Ref_hb.create ?governor ~lock_edges ();
        governor;
        disjoint;
        retention;
        history = Loc.Tbl.create 16;
        races = [];
        reported = Site.Pair.Set.empty;
        charged = 0;
        mem_events = 0;
        next_id = 0;
        shed_buckets = 0;
        truncations = 0;
      }
    in
    Option.iter (fun g -> Governor.subscribe g (fun _ -> compact t g)) governor;
    t

  let conflicting t lv old fresh =
    old.tid <> fresh.tid
    && (old.access = Event.Write || fresh.access = Event.Write)
    &&
    match lv with
    | Governor.Lockset_only -> Lockset.disjoint old.lockset fresh.lockset
    | _ -> ((not t.disjoint) || Lockset.disjoint old.lockset fresh.lockset) && concurrent old.vc fresh.vc

  let take n l = List.filteri (fun i _ -> i < n) l
  let replace_nth n x l = List.mapi (fun i y -> if i = n then x else y) l

  let feed t ev =
    let lv = level t in
    let vc = if lv = Governor.Lockset_only then Vclock.create () else Ref_hb.feed t.hb ev in
    match ev with
    | Event.Mem { tid; site; loc; access; lockset } ->
        t.mem_events <- t.mem_events + 1;
        let fresh = { tid; site; access; lockset; vc } in
        let b =
          match Loc.Tbl.find_opt t.history loc with
          | Some b -> b
          | None ->
              let b = { entries = []; seen = 0; last = 0; id = t.next_id } in
              t.next_id <- t.next_id + 1;
              Loc.Tbl.add t.history loc b;
              b
        in
        b.last <- t.mem_events;
        b.seen <- b.seen + 1;
        List.iter
          (fun old ->
            if conflicting t lv old fresh then begin
              let pair = Site.Pair.make old.site fresh.site in
              if not (Site.Pair.Set.mem pair t.reported) then begin
                t.reported <- Site.Pair.Set.add pair t.reported;
                t.races <-
                  D.Race.make ~pair ~loc ~tids:(old.tid, tid) ~accesses:(old.access, access)
                  :: t.races
              end
            end)
          b.entries;
        (match t.retention with
        | Cap cap ->
            let cap = match lv with Governor.Full -> cap | Governor.Sampled -> min cap 8 | Governor.Lockset_only -> 2 in
            let rest =
              List.filter
                (fun o -> not (o.tid = tid && Site.equal o.site site && o.access = access && Lockset.equal o.lockset lockset))
                b.entries
            in
            release t ~dropped:false (List.length b.entries - List.length rest);
            release t ~dropped:true (List.length rest - cap);
            let rest = take cap rest in
            let updated =
              if List.length rest < cap then fresh :: rest
              else begin
                release t ~dropped:true 1;
                if lv = Governor.Full then fresh :: take (cap - 1) rest
                else replace_nth (Fnv.(mask63 (fold_int63 basis63 t.mem_events)) mod cap) fresh rest
              end
            in
            charge t;
            b.entries <- updated
        | Reservoir (k, seed) ->
            let k = match lv with Governor.Full -> k | Governor.Sampled -> max 1 (k / 2) | Governor.Lockset_only -> 1 in
            release t ~dropped:true (List.length b.entries - k);
            let slots = take k b.entries in
            if List.length slots < k then begin
              charge t;
              b.entries <- slots @ [ fresh ]
            end
            else begin
              t.truncations <- t.truncations + 1;
              let key = Fnv.(mask63 (fold_int63 (fold_int63 (fold_int63 basis63 seed) (Loc.hash loc)) b.seen)) in
              let r = Prng.int (Prng.create key) b.seen in
              b.entries <- (if r < k then replace_nth r fresh slots else slots)
            end)
    | _ -> ()

  let miss_bound t =
    if t.shed_buckets > 0 then 1.0
    else
      Loc.Tbl.fold
        (fun _ b acc ->
          let live = List.length b.entries in
          if b.seen <= live then acc else max acc (1.0 -. (float_of_int live /. float_of_int b.seen)))
        t.history 0.0
end

(* ------------------------------------------------------------------ *)
(* Running both sides over one recorded trace                          *)

let record ~seed prog =
  let evs = ref [] in
  ignore
    (Rf_runtime.Engine.run
       ~config:{ Rf_runtime.Engine.default_config with seed; max_steps = 100_000 }
       ~listeners:[ (fun ev -> evs := ev :: !evs) ]
       ~strategy:(Rf_runtime.Strategy.random ())
       (Rf_lang.Lang.program ~print:ignore prog));
  List.rev !evs

type instance = { iname : string; lock_edges : bool; disjoint : bool; retention : retention }

let instances ~cap =
  [
    { iname = "hybrid"; lock_edges = false; disjoint = true; retention = Cap cap };
    { iname = "hb-precise"; lock_edges = true; disjoint = false; retention = Cap cap };
    { iname = "sampling"; lock_edges = false; disjoint = true; retention = Reservoir (2, 11) };
  ]

let make_new ?governor i =
  let d =
    D.Access_detector.create ?governor ~name:i.iname ~lock_edges:i.lock_edges
      ~require_disjoint_locksets:i.disjoint
      ~retention:
        (match i.retention with
        | Cap n -> D.Access_detector.Cap n
        | Reservoir (k, seed) -> D.Access_detector.Reservoir { k; seed })
      ()
  in
  d

let governor budget = Option.map (fun b -> Governor.create ~max_entries:b ()) budget

(* Feed [evs] to both sides; [None] when they agree, else what differed. *)
let disagreement ?budget i evs =
  let gn = governor budget and gr = governor budget in
  let d = make_new ?governor:gn i in
  let r = Ref.create ?governor:gr ~lock_edges:i.lock_edges ~disjoint:i.disjoint i.retention in
  List.iter
    (fun ev ->
      D.Access_detector.feed d ev;
      Ref.feed r ev)
    evs;
  let races l = List.map D.Race.to_string l in
  let level g = Option.map (fun g -> Governor.level g) g in
  let checks =
    [
      ("race lists", races (D.Access_detector.races d) = races (List.rev r.Ref.races));
      ("pair sets", Site.Pair.Set.equal (D.Access_detector.pairs d) r.Ref.reported);
      ("entries", D.Access_detector.state_entries d = r.Ref.charged);
      ("mem events", D.Access_detector.mem_events d = r.Ref.mem_events);
      ("truncations", D.Access_detector.truncations d = r.Ref.truncations);
      ("miss bound", D.Access_detector.miss_bound d = Ref.miss_bound r);
      ("rung", level gn = level gr);
    ]
  in
  List.find_map
    (fun (what, ok) -> if ok then None else Some (Printf.sprintf "%s: %s differ" i.iname what))
    checks

let agree ?budget ~cap evs =
  match List.find_map (fun i -> disagreement ?budget i evs) (instances ~cap) with
  | None -> true
  | Some msg -> QCheck.Test.fail_report msg

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

(* The predicate itself: for every earlier access and every later access
   of another thread, the epoch query answers exactly "not concurrent"
   under full clocks — for both edge policies. *)
let prop_epoch_predicate =
  QCheck.Test.make ~name:"epoch check = full-clock concurrency (every access pair)"
    ~count:60
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let evs = record ~seed prog in
      List.for_all
        (fun lock_edges ->
          let hb = D.Hbclock.create ~lock_edges () in
          let oracle = Ref_hb.create ~lock_edges () in
          let seen = ref [] in
          List.for_all
            (fun ev ->
              let clock = D.Hbclock.feed hb ev in
              let vc = Ref_hb.feed oracle ev in
              match ev with
              | Event.Mem { tid; _ } ->
                  let ok =
                    List.for_all
                      (fun (otid, oclock, ovc) ->
                        otid = tid
                        || D.Hbclock.hb_before hb ~tid:otid ~clock:oclock ~now_tid:tid
                           = not (concurrent ovc vc))
                      !seen
                  in
                  seen := (tid, clock, vc) :: !seen;
                  ok
              | _ -> true)
            evs)
        [ false; true ])

let prop_ungoverned =
  QCheck.Test.make ~name:"history core = full-clock reference (ungoverned)" ~count:60
    QCheck.(triple Rfl_gen.arbitrary_program small_int (int_range 1 16))
    (fun (prog, seed, cap) -> agree ~cap (record ~seed prog))

let prop_governed =
  QCheck.Test.make ~name:"history core = full-clock reference (small budgets)" ~count:60
    QCheck.(triple Rfl_gen.arbitrary_program small_int (int_range 2 60))
    (fun (prog, seed, budget) -> agree ~budget ~cap:12 (record ~seed prog))

(* A fixed trace that walks the whole ladder, so the Lockset-only rung is
   compared on every run, not only when the generator finds it. *)
let test_ladder_bottom () =
  let evs = ref [] in
  ignore
    (Rf_runtime.Engine.run
       ~config:{ Rf_runtime.Engine.default_config with seed = 3 }
       ~listeners:[ (fun ev -> evs := ev :: !evs) ]
       ~strategy:(Rf_runtime.Strategy.random ())
       Rf_workloads.Figure2.program);
  let evs = List.rev !evs in
  List.iter
    (fun i ->
      let g = Governor.create ~max_entries:6 () in
      let d = make_new ~governor:g i in
      List.iter (D.Access_detector.feed d) evs;
      Alcotest.(check string)
        (i.iname ^ " reaches the bottom rung")
        "lockset-only"
        (Governor.level_to_string (Governor.level g));
      Alcotest.(check (option string)) (i.iname ^ " agrees") None
        (disagreement ~budget:6 i evs))
    (instances ~cap:12)

let () =
  Alcotest.run "epoch_histories"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_epoch_predicate; prop_ungoverned; prop_governed ] );
      ("ladder", [ Alcotest.test_case "lockset-only rung" `Quick test_ladder_bottom ]);
    ]
