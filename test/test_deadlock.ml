(* Tests for the deadlock-direction extension (paper §1: biasing the
   random scheduler by potential deadlocks): Goodlock cycle detection and
   the deadlock-realizing scheduler. *)

open Rf_util
open Rf_runtime

let s = Api.site

(* Classic deadlock: two threads acquire two locks in opposite order. *)
let classic_cycle () =
  let a = Lock.create ~name:"A" () and b = Lock.create ~name:"B" () in
  let t1 =
    Api.fork ~name:"t1" (fun () ->
        Api.sync ~site:(s "t1:lock A") a (fun () ->
            Api.sync ~site:(s "t1:lock B") b (fun () -> ())))
  in
  let t2 =
    Api.fork ~name:"t2" (fun () ->
        Api.sync ~site:(s "t2:lock B") b (fun () ->
            Api.sync ~site:(s "t2:lock A") a (fun () -> ())))
  in
  Api.join t1;
  Api.join t2

(* Gate-protected cycle: the opposite-order sections are serialized by an
   enclosing gate lock, so the Goodlock cycle is a FALSE alarm — no
   schedule can realize it. *)
let gated_cycle () =
  let g = Lock.create ~name:"G" () in
  let a = Lock.create ~name:"A" () and b = Lock.create ~name:"B" () in
  let t1 =
    Api.fork ~name:"t1" (fun () ->
        Api.sync ~site:(s "g1") g (fun () ->
            Api.sync ~site:(s "g1:lock A") a (fun () ->
                Api.sync ~site:(s "g1:lock B") b (fun () -> ()))))
  in
  let t2 =
    Api.fork ~name:"t2" (fun () ->
        Api.sync ~site:(s "g2") g (fun () ->
            Api.sync ~site:(s "g2:lock B") b (fun () ->
                Api.sync ~site:(s "g2:lock A") a (fun () -> ()))))
  in
  Api.join t1;
  Api.join t2

(* Dining philosophers, 3 seats, everyone right-handed: cyclic. *)
let philosophers () =
  let forks = Array.init 3 (fun i -> Lock.create ~name:(Printf.sprintf "fork%d" i) ()) in
  let hs =
    List.init 3 (fun i ->
        Api.fork ~name:(Printf.sprintf "phil%d" i) (fun () ->
            let first = forks.(i) and second = forks.((i + 1) mod 3) in
            Api.sync ~site:(s (Printf.sprintf "phil%d:first" i)) first (fun () ->
                Api.sync ~site:(s (Printf.sprintf "phil%d:second" i)) second (fun () ->
                    ()))))
  in
  List.iter Api.join hs

(* ------------------------------------------------------------------ *)
(* Goodlock (phase 1)                                                  *)

let candidates_of program seeds = Racefuzzer.Deadlock_fuzzer.phase1 ~seeds program

let test_goodlock_finds_classic_cycle () =
  let cands = candidates_of classic_cycle (List.init 10 Fun.id) in
  Alcotest.(check bool) "at least one candidate" true (List.length cands >= 1);
  let c = List.hd cands in
  Alcotest.(check bool) "inner sites are the second acquires" true
    (let labels =
       List.sort compare (List.map Site.label c.Rf_detect.Goodlock.sites)
     in
     labels = [ "t1:lock B"; "t2:lock A" ])

let test_goodlock_no_cycle_without_nesting () =
  let flat () =
    let a = Lock.create ~name:"A" () and b = Lock.create ~name:"B" () in
    let t1 =
      Api.fork ~name:"t1" (fun () ->
          Api.sync ~site:(s "f1a") a (fun () -> ());
          Api.sync ~site:(s "f1b") b (fun () -> ()))
    in
    let t2 =
      Api.fork ~name:"t2" (fun () ->
          Api.sync ~site:(s "f2b") b (fun () -> ());
          Api.sync ~site:(s "f2a") a (fun () -> ()))
    in
    Api.join t1;
    Api.join t2
  in
  Alcotest.(check int) "no candidates" 0
    (List.length (candidates_of flat (List.init 10 Fun.id)))

let test_goodlock_same_order_no_cycle () =
  let same_order () =
    let a = Lock.create ~name:"A" () and b = Lock.create ~name:"B" () in
    let body tag () =
      Api.sync ~site:(s (tag ^ ":A")) a (fun () ->
          Api.sync ~site:(s (tag ^ ":B")) b (fun () -> ()))
    in
    let t1 = Api.fork ~name:"t1" (body "s1") in
    let t2 = Api.fork ~name:"t2" (body "s2") in
    Api.join t1;
    Api.join t2
  in
  Alcotest.(check int) "consistent order: no candidates" 0
    (List.length (candidates_of same_order (List.init 10 Fun.id)))

let test_goodlock_reports_gated_cycle_as_potential () =
  (* plain Goodlock over-approximates: the gated cycle IS reported *)
  let cands = candidates_of gated_cycle (List.init 10 Fun.id) in
  Alcotest.(check bool) "gated cycle reported (imprecision)" true
    (List.length cands >= 1)

(* ------------------------------------------------------------------ *)
(* DeadlockFuzzer (phase 2)                                            *)

let test_deadlockfuzzer_realizes_classic_cycle () =
  let results =
    Racefuzzer.Deadlock_fuzzer.analyze
      ~phase1_seeds:(List.init 10 Fun.id)
      ~seeds_per_candidate:(List.init 50 Fun.id)
      classic_cycle
  in
  Alcotest.(check bool) "candidate exists" true (results <> []);
  let r = List.hd results in
  Alcotest.(check bool)
    (Printf.sprintf "high deadlock probability (%f)" r.Racefuzzer.Deadlock_fuzzer.dc_probability)
    true
    (r.Racefuzzer.Deadlock_fuzzer.dc_probability > 0.8);
  Alcotest.(check bool) "classified real" true
    (Racefuzzer.Deadlock_fuzzer.is_real r)

let test_deadlockfuzzer_rejects_gated_cycle () =
  let results =
    Racefuzzer.Deadlock_fuzzer.analyze
      ~phase1_seeds:(List.init 10 Fun.id)
      ~seeds_per_candidate:(List.init 50 Fun.id)
      gated_cycle
  in
  Alcotest.(check bool) "candidate exists (phase 1 imprecise)" true (results <> []);
  List.iter
    (fun r ->
      Alcotest.(check int) "never realized: false alarm" 0
        r.Racefuzzer.Deadlock_fuzzer.dc_deadlock_trials)
    results

let test_deadlockfuzzer_beats_random_on_classic () =
  (* undirected random scheduling deadlocks the classic cycle only when the
     interleaving happens to align; the directed scheduler nearly always *)
  let random_deadlocks =
    List.length
      (List.filter
         (fun seed ->
           Outcome.deadlocked
             (Engine.run
                ~config:{ Engine.default_config with seed }
                ~strategy:(Strategy.random ()) classic_cycle))
         (List.init 50 Fun.id))
  in
  let results =
    Racefuzzer.Deadlock_fuzzer.analyze
      ~phase1_seeds:(List.init 10 Fun.id)
      ~seeds_per_candidate:(List.init 50 Fun.id)
      classic_cycle
  in
  let directed = (List.hd results).Racefuzzer.Deadlock_fuzzer.dc_deadlock_trials in
  Alcotest.(check bool)
    (Printf.sprintf "directed (%d/50) > random (%d/50)" directed random_deadlocks)
    true
    (directed > random_deadlocks)

let test_deadlockfuzzer_philosophers () =
  let results =
    Racefuzzer.Deadlock_fuzzer.analyze
      ~phase1_seeds:(List.init 10 Fun.id)
      ~seeds_per_candidate:(List.init 40 Fun.id)
      philosophers
  in
  Alcotest.(check bool) "cycles found" true (List.length results >= 1);
  Alcotest.(check bool) "some cycle realized" true
    (List.exists Racefuzzer.Deadlock_fuzzer.is_real results)

let test_deadlock_replay () =
  let results =
    Racefuzzer.Deadlock_fuzzer.analyze
      ~phase1_seeds:(List.init 10 Fun.id)
      ~seeds_per_candidate:(List.init 30 Fun.id)
      classic_cycle
  in
  match results with
  | [] -> Alcotest.fail "no candidate"
  | r :: _ -> (
      match r.Racefuzzer.Deadlock_fuzzer.dc_seed with
      | None -> Alcotest.fail "no deadlock seed"
      | Some seed ->
          let again =
            Racefuzzer.Deadlock_fuzzer.fuzz_candidate ~seeds:[ seed ]
              ~program:classic_cycle r.Racefuzzer.Deadlock_fuzzer.dc_candidate
          in
          Alcotest.(check int) "seed replays the deadlock" 1
            again.Racefuzzer.Deadlock_fuzzer.dc_deadlock_trials)

(* ------------------------------------------------------------------ *)
(* Parallel fuzzing equivalence (embarrassingly parallel claim)        *)

(* One pair's trials fuzzed by a campaign over [domains] domains. *)
let campaign_pair ~domains ~seeds ~program pair =
  match Rf_campaign.Campaign.fuzz_pairs ~domains ~seeds ~program [ pair ] with
  | [ r ], _ -> r
  | _ -> Alcotest.fail "one pair in, one result out"

let test_parallel_fuzz_matches_sequential () =
  let program = Rf_workloads.Figure1.program in
  let pair = Rf_workloads.Figure1.real_pair in
  let seeds = List.init 40 Fun.id in
  let seq = Racefuzzer.Fuzzer.fuzz_pair ~seeds ~program pair in
  let par = campaign_pair ~domains:4 ~seeds ~program pair in
  Alcotest.(check int) "race trials equal" seq.Racefuzzer.Fuzzer.race_trials
    par.Racefuzzer.Fuzzer.race_trials;
  Alcotest.(check int) "error trials equal" seq.Racefuzzer.Fuzzer.error_trials
    par.Racefuzzer.Fuzzer.error_trials;
  Alcotest.(check bool) "same per-seed outcomes" true
    (List.for_all2
       (fun (a : Racefuzzer.Fuzzer.trial) (b : Racefuzzer.Fuzzer.trial) ->
         a.Racefuzzer.Fuzzer.t_seed = b.Racefuzzer.Fuzzer.t_seed
         && Racefuzzer.Algo.race_created a.Racefuzzer.Fuzzer.t_report
            = Racefuzzer.Algo.race_created b.Racefuzzer.Fuzzer.t_report
         && a.Racefuzzer.Fuzzer.t_outcome.Rf_runtime.Outcome.steps
            = b.Racefuzzer.Fuzzer.t_outcome.Rf_runtime.Outcome.steps)
       seq.Racefuzzer.Fuzzer.trials par.Racefuzzer.Fuzzer.trials)

let test_parallel_fuzz_collections () =
  (* domain-safety of the whole stack: collections allocate locs and locks *)
  let program = Rf_workloads.Coll_drivers.linkedlist.Rf_workloads.Workload.program in
  let seeds = List.init 24 Fun.id in
  let pair =
    let p1 = Racefuzzer.Fuzzer.phase1 ~seeds:[ 0; 1; 2 ] program in
    Site.Pair.Set.choose (Racefuzzer.Fuzzer.potential_pairs p1)
  in
  let seq = Racefuzzer.Fuzzer.fuzz_pair ~seeds ~program pair in
  let par = campaign_pair ~domains:3 ~seeds ~program pair in
  Alcotest.(check int) "collections: race trials equal"
    seq.Racefuzzer.Fuzzer.race_trials par.Racefuzzer.Fuzzer.race_trials

let () =
  Alcotest.run "rf_deadlock_and_parallel"
    [
      ( "goodlock",
        [
          Alcotest.test_case "classic cycle" `Quick test_goodlock_finds_classic_cycle;
          Alcotest.test_case "no nesting no cycle" `Quick
            test_goodlock_no_cycle_without_nesting;
          Alcotest.test_case "same order no cycle" `Quick
            test_goodlock_same_order_no_cycle;
          Alcotest.test_case "gated cycle reported" `Quick
            test_goodlock_reports_gated_cycle_as_potential;
        ] );
      ( "deadlockfuzzer",
        [
          Alcotest.test_case "realizes classic" `Quick
            test_deadlockfuzzer_realizes_classic_cycle;
          Alcotest.test_case "rejects gated" `Quick test_deadlockfuzzer_rejects_gated_cycle;
          Alcotest.test_case "beats random" `Quick
            test_deadlockfuzzer_beats_random_on_classic;
          Alcotest.test_case "philosophers" `Quick test_deadlockfuzzer_philosophers;
          Alcotest.test_case "replay" `Quick test_deadlock_replay;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_fuzz_matches_sequential;
          Alcotest.test_case "collections domain-safety" `Quick
            test_parallel_fuzz_collections;
        ] );
    ]
