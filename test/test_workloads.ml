(* End-to-end validation of every Table-1 workload analogue against its
   designed race topology: hybrid potential counts, RaceFuzzer-confirmed
   real pairs, harmful pairs, and absence of false confirmations. *)

open Rf_util
open Racefuzzer
module W = Rf_workloads

let seeds n = List.init n Fun.id

let analyze ?(p1 = 6) ?(per_pair = 40) (w : W.Workload.t) =
  Fuzzer.analyze ~phase1_seeds:(seeds p1) ~seeds_per_pair:(seeds per_pair)
    w.W.Workload.program

(* Cache analyses: several tests inspect the same workload. *)
let analysis_tbl : (string, Fuzzer.analysis) Hashtbl.t = Hashtbl.create 16

let analysis (w : W.Workload.t) =
  match Hashtbl.find_opt analysis_tbl w.W.Workload.name with
  | Some a -> a
  | None ->
      let a = analyze w in
      Hashtbl.add analysis_tbl w.W.Workload.name a;
      a

let potential a = Site.Pair.Set.cardinal (Fuzzer.potential_pairs a.Fuzzer.a_phase1)
let nreal a = Site.Pair.Set.cardinal a.Fuzzer.real_pairs
let nerror a = Site.Pair.Set.cardinal a.Fuzzer.error_pairs

let check_contains_all name expected set =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s confirmed" name (Site.Pair.to_string p))
        true (Site.Pair.Set.mem p set))
    expected

(* ------------------------------------------------------------------ *)
(* Generic properties for every workload                                *)

let test_terminates (w : W.Workload.t) () =
  List.iter
    (fun (mk : unit -> Rf_runtime.Strategy.t) ->
      List.iter
        (fun seed ->
          let o =
            Rf_runtime.Engine.run
              ~config:{ Rf_runtime.Engine.default_config with seed }
              ~strategy:(mk ()) w.W.Workload.program
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d terminates" w.W.Workload.name seed)
            false o.Rf_runtime.Outcome.timed_out;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d no deadlock" w.W.Workload.name seed)
            true
            (o.Rf_runtime.Outcome.deadlocked = []))
        (seeds 8))
    [
      Rf_runtime.Strategy.random;
      Rf_runtime.Strategy.round_robin;
      (fun () -> Rf_runtime.Strategy.timesliced ~quantum:5 ());
    ]

let test_real_subset_of_potential (w : W.Workload.t) () =
  let a = analysis w in
  Alcotest.(check bool)
    (Printf.sprintf "%s: real ⊆ potential" w.W.Workload.name)
    true
    (Site.Pair.Set.subset a.Fuzzer.real_pairs
       (Fuzzer.potential_pairs a.Fuzzer.a_phase1));
  Alcotest.(check bool)
    (Printf.sprintf "%s: errors ⊆ real" w.W.Workload.name)
    true
    (Site.Pair.Set.subset a.Fuzzer.error_pairs a.Fuzzer.real_pairs)

(* ------------------------------------------------------------------ *)
(* Per-workload topology                                                *)

let test_moldyn () =
  let a = analysis W.Moldyn.workload in
  Alcotest.(check bool) "many potential" true (potential a >= 4);
  check_contains_all "moldyn" (W.Moldyn.real_pairs ()) a.Fuzzer.real_pairs;
  Alcotest.(check int) "exactly the 2 benign counter races" 2 (nreal a);
  Alcotest.(check int) "no exceptions" 0 (nerror a)

let test_raytracer () =
  let a = analysis W.Raytracer.workload in
  check_contains_all "raytracer" (W.Raytracer.real_pairs ()) a.Fuzzer.real_pairs;
  Alcotest.(check int) "both checksum pairs, nothing else" 2 (nreal a);
  Alcotest.(check int) "all potential are real (paper: 2/2)" 2 (potential a);
  Alcotest.(check int) "no exceptions" 0 (nerror a)

let test_montecarlo () =
  let a = analysis W.Montecarlo.workload in
  check_contains_all "montecarlo" (W.Montecarlo.real_pairs ()) a.Fuzzer.real_pairs;
  Alcotest.(check int) "exactly one real race" 1 (nreal a);
  Alcotest.(check bool) "several false alarms (paper: 5/1)" true (potential a >= 3);
  Alcotest.(check int) "no exceptions" 0 (nerror a)

let test_cache4j () =
  let a = analysis W.Cache4j.workload in
  check_contains_all "cache4j" (W.Cache4j.real_pairs ()) a.Fuzzer.real_pairs;
  Alcotest.(check bool) "potential > real" true (potential a > nreal a);
  Alcotest.(check bool) "the _sleep race is harmful" true
    (Site.Pair.Set.mem W.Cache4j.harmful_pair a.Fuzzer.error_pairs)

let test_sor () =
  let a = analysis W.Sor.workload in
  Alcotest.(check bool) "several potential races" true (potential a >= 4);
  Alcotest.(check int) "zero real (paper: 8/0)" 0 (nreal a)

let test_hedc () =
  let a = analysis W.Hedc.workload in
  Alcotest.(check int) "exactly one real race" 1 (nreal a);
  Alcotest.(check bool) "it is the handle race" true
    (Site.Pair.Set.mem W.Hedc.harmful_pair a.Fuzzer.real_pairs);
  Alcotest.(check bool) "it is harmful (NPE)" true
    (Site.Pair.Set.mem W.Hedc.harmful_pair a.Fuzzer.error_pairs);
  Alcotest.(check bool) "several false alarms (paper: 9/1)" true (potential a >= 5)

let test_weblech () =
  let a = analysis W.Weblech.workload in
  Alcotest.(check bool) "real races found" true (nreal a >= 2);
  Alcotest.(check bool) "check-then-pop confirmed harmful" true
    (Site.Pair.Set.mem W.Weblech.harmful_pair a.Fuzzer.error_pairs);
  Alcotest.(check bool) "many false alarms (paper: 27 potential)" true
    (potential a >= 15)

let test_weblech_simple_random_sometimes_crashes () =
  (* paper column 10: the simple random scheduler also finds 1 exception *)
  let b =
    Fuzzer.baseline ~seeds:(seeds 150) ~make_strategy:Rf_runtime.Strategy.random
      W.Weblech.workload.W.Workload.program
  in
  Alcotest.(check bool)
    (Printf.sprintf "random finds the crash occasionally (%d/150)"
       b.Fuzzer.b_error_trials)
    true
    (b.Fuzzer.b_error_trials > 0)

let test_jspider () =
  let a = analysis W.Jspider.workload in
  Alcotest.(check bool) "many potential (paper: 29)" true (potential a >= 20);
  Alcotest.(check int) "zero real" 0 (nreal a);
  Alcotest.(check int) "zero exceptions" 0 (nerror a)

let test_jigsaw () =
  let a = analysis W.Jigsaw.workload in
  Alcotest.(check bool) "most potential of all" true (potential a >= 25);
  Alcotest.(check bool) "many real (paper: 36)" true (nreal a >= 8);
  Alcotest.(check int) "no exceptions" 0 (nerror a);
  (* every confirmed pair is one of the designed counter pairs *)
  let designed = Site.Pair.Set.of_list (W.Jigsaw.real_pairs ()) in
  Alcotest.(check bool) "confirmed ⊆ designed" true
    (Site.Pair.Set.subset a.Fuzzer.real_pairs designed)

let test_vector () =
  let a = analysis W.Coll_drivers.vector in
  Alcotest.(check bool) "several real races" true (nreal a >= 3);
  Alcotest.(check int) "benign: no exceptions (paper: 9/9, 0 exc)" 0 (nerror a);
  (* vector 1.1's defining property: every potential race is real *)
  Alcotest.(check int)
    "potential = real (paper: potential 9 = real 9)"
    (potential a) (nreal a)

let coll_driver_has_harmful (w : W.Workload.t) () =
  let a = analysis w in
  Alcotest.(check bool)
    (Printf.sprintf "%s: real races found" w.W.Workload.name)
    true (nreal a >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "%s: >=1 harmful pair (CME/NSE)" w.W.Workload.name)
    true (nerror a >= 1)

(* ------------------------------------------------------------------ *)
(* Extras: tsp / elevator / philosophers                                *)

let test_tsp () =
  let a = analysis W.Extras.tsp in
  Alcotest.(check int) "one potential pair" 1 (potential a);
  check_contains_all "tsp" (W.Extras.tsp_real_pairs ()) a.Fuzzer.real_pairs;
  Alcotest.(check int) "the benign bound race is real" 1 (nreal a);
  Alcotest.(check int) "benign: no exceptions" 0 (nerror a)

let test_elevator () =
  let a = analysis W.Extras.elevator in
  Alcotest.(check bool) "several real races" true (nreal a >= 2);
  Alcotest.(check bool) "doors check-then-act harmful" true
    (Site.Pair.Set.mem W.Extras.elevator_harmful_pair a.Fuzzer.error_pairs)

let test_philosophers_deadlock () =
  let results =
    Racefuzzer.Deadlock_fuzzer.analyze
      ~phase1_seeds:(seeds 10)
      ~seeds_per_candidate:(seeds 30)
      W.Extras.philosophers.W.Workload.program
  in
  Alcotest.(check bool) "cycles found" true (results <> []);
  Alcotest.(check bool) "a cycle realizes" true
    (List.exists Racefuzzer.Deadlock_fuzzer.is_real results)

(* ------------------------------------------------------------------ *)
(* The stress-serve family: fixed pair inventory and phase-1
   determinism at test scale.                                           *)

let serve_phase1 () =
  match W.Registry.find "stress-serve-small" with
  | Some w -> Fuzzer.phase1 ~seeds:(seeds 3) w.W.Workload.program
  | None -> Alcotest.fail "stress-serve-small not registered"

let test_serve_golden_inventory () =
  (* the golden inventory: 2 session + 2 hit-counter + 1 config + 3
     backlog check-then-act + 3 handshake false alarms *)
  Alcotest.(check int) "11 potential pairs" 11
    (Site.Pair.Set.cardinal (Fuzzer.potential_pairs (serve_phase1 ())))

let test_serve_phase1_deterministic () =
  let r1 = serve_phase1 () and r2 = serve_phase1 () in
  Alcotest.(check (list string)) "same race list"
    (List.map Rf_detect.Race.to_string r1.Fuzzer.potential)
    (List.map Rf_detect.Race.to_string r2.Fuzzer.potential);
  Alcotest.(check bool) "same detector accounting" true
    (r1.Fuzzer.p1_stats = r2.Fuzzer.p1_stats)

let all_cases =
  let generic =
    List.concat_map
      (fun (w : W.Workload.t) ->
        [
          Alcotest.test_case (w.W.Workload.name ^ " terminates") `Slow
            (test_terminates w);
          Alcotest.test_case (w.W.Workload.name ^ " soundness") `Slow
            (test_real_subset_of_potential w);
        ])
      W.Registry.all
  in
  generic
  @ [
      Alcotest.test_case "moldyn topology" `Slow test_moldyn;
      Alcotest.test_case "raytracer topology" `Slow test_raytracer;
      Alcotest.test_case "montecarlo topology" `Slow test_montecarlo;
      Alcotest.test_case "cache4j topology" `Slow test_cache4j;
      Alcotest.test_case "sor topology" `Slow test_sor;
      Alcotest.test_case "hedc topology" `Slow test_hedc;
      Alcotest.test_case "weblech topology" `Slow test_weblech;
      Alcotest.test_case "weblech simple-random" `Slow
        test_weblech_simple_random_sometimes_crashes;
      Alcotest.test_case "jspider topology" `Slow test_jspider;
      Alcotest.test_case "jigsaw topology" `Slow test_jigsaw;
      Alcotest.test_case "vector topology" `Slow test_vector;
      Alcotest.test_case "linkedlist harmful" `Slow
        (coll_driver_has_harmful W.Coll_drivers.linkedlist);
      Alcotest.test_case "arraylist harmful" `Slow
        (coll_driver_has_harmful W.Coll_drivers.arraylist);
      Alcotest.test_case "hashset harmful" `Slow
        (coll_driver_has_harmful W.Coll_drivers.hashset);
      Alcotest.test_case "treeset harmful" `Slow
        (coll_driver_has_harmful W.Coll_drivers.treeset);
      Alcotest.test_case "tsp topology" `Slow test_tsp;
      Alcotest.test_case "elevator topology" `Slow test_elevator;
      Alcotest.test_case "philosophers deadlock" `Slow test_philosophers_deadlock;
      Alcotest.test_case "tsp terminates" `Slow (test_terminates W.Extras.tsp);
      Alcotest.test_case "elevator terminates" `Slow (test_terminates W.Extras.elevator);
      Alcotest.test_case "tsp soundness" `Slow
        (test_real_subset_of_potential W.Extras.tsp);
      Alcotest.test_case "elevator soundness" `Slow
        (test_real_subset_of_potential W.Extras.elevator);
    ]

let () =
  Alcotest.run "rf_workloads"
    [
      ("workloads", all_cases);
      ( "stress-serve",
        [
          Alcotest.test_case "golden pair inventory" `Quick
            test_serve_golden_inventory;
          Alcotest.test_case "phase 1 deterministic" `Quick
            test_serve_phase1_deterministic;
        ] );
    ]
