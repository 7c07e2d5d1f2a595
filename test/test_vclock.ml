(* Tests for vector clocks: lattice laws, ordering, concurrency.  Clocks
   update in place, so the laws are stated over [join_of], a join into a
   fresh copy; strict order and concurrency are derived here from [leq]. *)

open Rf_vclock

let vc = Alcotest.testable Vclock.pp Vclock.equal

let join_of a b =
  let j = Vclock.copy a in
  Vclock.join j b;
  j

let tick_of a tid =
  let c = Vclock.copy a in
  Vclock.tick c tid;
  c

let lt a b = Vclock.leq a b && not (Vclock.equal a b)
let concurrent a b = (not (Vclock.leq a b)) && not (Vclock.leq b a)

let test_bottom () =
  Alcotest.(check (list (pair int int))) "bottom is empty" []
    (Vclock.to_list (Vclock.create ()));
  Alcotest.(check int) "get on bottom" 0 (Vclock.get (Vclock.create ()) 5)

let test_tick () =
  let c = Vclock.create () in
  Vclock.tick c 3;
  Alcotest.(check int) "ticked" 1 (Vclock.get c 3);
  Alcotest.(check int) "others zero" 0 (Vclock.get c 4);
  Vclock.tick c 3;
  Alcotest.(check int) "ticked twice" 2 (Vclock.get c 3)

let test_join () =
  let a = Vclock.of_list [ (0, 3); (1, 1) ] in
  let b = Vclock.of_list [ (1, 4); (2, 2) ] in
  let j = join_of a b in
  Alcotest.check vc "join componentwise max"
    (Vclock.of_list [ (0, 3); (1, 4); (2, 2) ])
    j;
  Alcotest.check vc "join leaves its argument alone" (Vclock.of_list [ (1, 4); (2, 2) ]) b

let test_leq () =
  let a = Vclock.of_list [ (0, 1); (1, 2) ] in
  let b = Vclock.of_list [ (0, 2); (1, 2) ] in
  Alcotest.(check bool) "a <= b" true (Vclock.leq a b);
  Alcotest.(check bool) "not b <= a" false (Vclock.leq b a);
  Alcotest.(check bool) "a < b" true (lt a b);
  Alcotest.(check bool) "not a < a" false (lt a a);
  Alcotest.(check bool) "a <= a" true (Vclock.leq a a)

let test_concurrent () =
  let a = Vclock.of_list [ (0, 2); (1, 0) ] in
  let b = Vclock.of_list [ (0, 0); (1, 2) ] in
  Alcotest.(check bool) "concurrent" true (concurrent a b);
  Alcotest.(check bool) "not concurrent with self" false (concurrent a a);
  Alcotest.(check bool) "ordered not concurrent" false (concurrent a (join_of a b))

let test_zero_components_are_bottom () =
  let a = Vclock.of_list [ (0, 1); (0, 0) ] in
  Alcotest.check vc "zero components equal bottom" (Vclock.create ()) a;
  Alcotest.(check (list (pair int int))) "and list as empty" [] (Vclock.to_list a)

let test_copy_and_assign () =
  let a = Vclock.of_list [ (0, 2); (3, 1) ] in
  let snap = Vclock.copy a in
  Vclock.tick a 0;
  Alcotest.check vc "a snapshot does not move" (Vclock.of_list [ (0, 2); (3, 1) ]) snap;
  let l = Vclock.of_list [ (5, 9) ] in
  Vclock.assign l snap;
  Alcotest.check vc "assign overwrites every component" snap l;
  Vclock.assign snap (Vclock.of_list [ (9, 1) ]);
  Alcotest.check vc "assign into a shorter clock grows it" (Vclock.of_list [ (9, 1) ]) snap

(* ------------------------------------------------------------------ *)
(* QCheck: lattice laws over random clocks                             *)

let gen_clock =
  QCheck.Gen.(
    map
      (fun l -> Vclock.of_list (List.map (fun (t, n) -> (t mod 6, (n mod 8) + 1)) l))
      (small_list (pair small_nat small_nat)))

let arb_clock = QCheck.make ~print:(Fmt.to_to_string Vclock.pp) gen_clock

let prop_join_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:300 (QCheck.pair arb_clock arb_clock)
    (fun (a, b) -> Vclock.equal (join_of a b) (join_of b a))

let prop_join_associative =
  QCheck.Test.make ~name:"join associative" ~count:300
    (QCheck.triple arb_clock arb_clock arb_clock) (fun (a, b, c) ->
      Vclock.equal (join_of a (join_of b c)) (join_of (join_of a b) c))

let prop_join_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:300 arb_clock (fun a ->
      Vclock.equal (join_of a a) a)

let prop_join_unit =
  QCheck.Test.make ~name:"bottom is unit" ~count:300 arb_clock (fun a ->
      Vclock.equal (join_of a (Vclock.create ())) a
      && Vclock.equal (join_of (Vclock.create ()) a) a)

let prop_join_is_lub =
  QCheck.Test.make ~name:"join is an upper bound" ~count:300
    (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
      let j = join_of a b in
      Vclock.leq a j && Vclock.leq b j)

let prop_leq_partial_order =
  QCheck.Test.make ~name:"leq antisymmetric + transitive-ish" ~count:300
    (QCheck.triple arb_clock arb_clock arb_clock) (fun (a, b, c) ->
      (* antisymmetry *)
      ((not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b)
      (* transitivity *)
      && ((not (Vclock.leq a b && Vclock.leq b c)) || Vclock.leq a c))

let prop_concurrent_symmetric =
  QCheck.Test.make ~name:"concurrency symmetric and irreflexive" ~count:300
    (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
      concurrent a b = concurrent b a && not (concurrent a a))

let prop_tick_strictly_increases =
  QCheck.Test.make ~name:"tick strictly increases" ~count:300
    (QCheck.pair arb_clock QCheck.small_nat) (fun (a, t) ->
      lt a (tick_of a (t mod 6)))

let () =
  Alcotest.run "rf_vclock"
    [
      ( "unit",
        [
          Alcotest.test_case "bottom" `Quick test_bottom;
          Alcotest.test_case "tick" `Quick test_tick;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "leq/lt" `Quick test_leq;
          Alcotest.test_case "concurrent" `Quick test_concurrent;
          Alcotest.test_case "zero components are bottom" `Quick
            test_zero_components_are_bottom;
          Alcotest.test_case "copy and assign" `Quick test_copy_and_assign;
        ] );
      ( "laws",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_join_commutative;
            prop_join_associative;
            prop_join_idempotent;
            prop_join_unit;
            prop_join_is_lub;
            prop_leq_partial_order;
            prop_concurrent_symmetric;
            prop_tick_strictly_increases;
          ] );
    ]
