(* Tests for the RaceFuzzer algorithm (phase 2) and the two-phase driver,
   validated against the paper's ground truth for Figures 1 and 2:

   - Figure 1: the (5,7) race on z is real (created with probability ~1,
     ERROR1 raised ~half the time); the (1,10) candidate on x is a false
     alarm that RaceFuzzer must never "confirm".
   - Figure 2: the (8,10) race is created with probability 1 and ERROR is
     reached with probability ~0.5 independent of padding size k, while a
     simple random scheduler's error probability collapses as k grows. *)

open Rf_util
open Racefuzzer

module F1 = Rf_workloads.Figure1
module F2 = Rf_workloads.Figure2

let seeds n = List.init n Fun.id

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)

let test_fig1_real_race_confirmed () =
  let r = Fuzzer.fuzz_pair ~seeds:(seeds 100) ~program:F1.program F1.real_pair in
  Alcotest.(check int) "race created in every trial" 100 r.Fuzzer.race_trials;
  Alcotest.(check (float 0.001)) "probability 1.0" 1.0 r.Fuzzer.probability;
  Alcotest.(check bool) "classified real" true (Fuzzer.is_real r)

let test_fig1_error1_about_half () =
  let r = Fuzzer.fuzz_pair ~seeds:(seeds 200) ~program:F1.program F1.real_pair in
  Alcotest.(check bool) "harmful race" true (Fuzzer.is_harmful r);
  Alcotest.(check bool)
    (Printf.sprintf "ERROR1 rate ~0.5 (got %d/200)" r.Fuzzer.error_trials)
    true
    (r.Fuzzer.error_trials > 60 && r.Fuzzer.error_trials < 140)

let test_fig1_false_alarm_rejected () =
  let r = Fuzzer.fuzz_pair ~seeds:(seeds 100) ~program:F1.program F1.false_pair in
  Alcotest.(check int) "no race ever created" 0 r.Fuzzer.race_trials;
  Alcotest.(check int) "no error" 0 r.Fuzzer.error_trials;
  Alcotest.(check bool) "not real" false (Fuzzer.is_real r)

let test_fig1_error2_never () =
  (* ERROR2 is unreachable in any schedule; no exception other than ERROR1
     may ever appear in any trial of either pair. *)
  List.iter
    (fun pair ->
      let r = Fuzzer.fuzz_pair ~seeds:(seeds 100) ~program:F1.program pair in
      List.iter
        (fun (t : Fuzzer.trial) ->
          List.iter
            (fun (x : Rf_runtime.Outcome.exn_report) ->
              match x.Rf_runtime.Outcome.exn_ with
              | Rf_runtime.Api.Model_error "ERROR1" -> ()
              | e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e))
            t.Fuzzer.t_outcome.Rf_runtime.Outcome.exceptions)
        r.Fuzzer.trials)
    [ F1.real_pair; F1.false_pair ]

let test_fig1_end_to_end_analysis () =
  let a =
    Fuzzer.analyze ~phase1_seeds:(seeds 10) ~seeds_per_pair:(seeds 50) F1.program
  in
  let potential = Fuzzer.potential_pairs a.Fuzzer.a_phase1 in
  Alcotest.(check int) "phase1: two potential pairs" 2
    (Site.Pair.Set.cardinal potential);
  Alcotest.(check int) "one real pair" 1 (Site.Pair.Set.cardinal a.Fuzzer.real_pairs);
  Alcotest.(check bool) "the real pair is (5,7)" true
    (Site.Pair.Set.mem F1.real_pair a.Fuzzer.real_pairs);
  Alcotest.(check bool) "the false pair is rejected" false
    (Site.Pair.Set.mem F1.false_pair a.Fuzzer.real_pairs);
  Alcotest.(check int) "one harmful pair" 1
    (Site.Pair.Set.cardinal a.Fuzzer.error_pairs)

let test_fig1_postponement_happens () =
  (* For the false pair, thread1 gets postponed at statement 1 and must be
     evicted once everything else has terminated. *)
  let saw_postpone = ref false and saw_evict = ref false in
  List.iter
    (fun seed ->
      let _, report = Fuzzer.replay ~seed ~program:F1.program F1.false_pair in
      if report.Algo.postponements > 0 then saw_postpone := true;
      if report.Algo.evictions > 0 then saw_evict := true)
    (seeds 20);
  Alcotest.(check bool) "postponements observed" true !saw_postpone;
  Alcotest.(check bool) "deadlock-break evictions observed" true !saw_evict

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let test_replay_reproduces_trace () =
  let r = Fuzzer.fuzz_pair ~seeds:(seeds 20) ~program:F1.program F1.real_pair in
  match r.Fuzzer.race_seed with
  | None -> Alcotest.fail "no race seed"
  | Some seed ->
      let o1, rep1 = Fuzzer.replay ~record_trace:true ~seed ~program:F1.program F1.real_pair in
      let o2, rep2 = Fuzzer.replay ~record_trace:true ~seed ~program:F1.program F1.real_pair in
      Alcotest.(check bool) "race recreated on replay" true
        (Algo.race_created rep1 && Algo.race_created rep2);
      (match (o1.Rf_runtime.Outcome.trace, o2.Rf_runtime.Outcome.trace) with
      | Some t1, Some t2 ->
          Alcotest.(check bool) "identical event traces" true (Rf_events.Trace.equal t1 t2)
      | _ -> Alcotest.fail "traces missing");
      let h1 = Algo.hits rep1 and h2 = Algo.hits rep2 in
      Alcotest.(check int) "same number of hits" (List.length h1) (List.length h2)

let test_replay_error_seed_reproduces_error () =
  let r = Fuzzer.fuzz_pair ~seeds:(seeds 50) ~program:F1.program F1.real_pair in
  match r.Fuzzer.error_seed with
  | None -> Alcotest.fail "no error seed in 50 trials"
  | Some seed ->
      let o, rep = Fuzzer.replay ~seed ~program:F1.program F1.real_pair in
      Alcotest.(check bool) "error reproduced" true (Rf_runtime.Outcome.has_exception o);
      Alcotest.(check bool) "race reproduced" true (Algo.race_created rep)

(* ------------------------------------------------------------------ *)
(* Hit metadata                                                        *)

let test_hit_metadata () =
  let found = ref false in
  List.iter
    (fun seed ->
      let _, rep = Fuzzer.replay ~seed ~program:F1.program F1.real_pair in
      List.iter
        (fun (h : Algo.hit) ->
          found := true;
          Alcotest.(check bool) "hit pair is the RaceSet" true
            (Site.Pair.equal h.Algo.hit_pair F1.real_pair);
          Alcotest.(check bool) "loc is z" true
            (Loc.equal h.Algo.hit_loc (Loc.global "z"));
          Alcotest.(check bool) "one postponed thread" true
            (List.length h.Algo.hit_postponed = 1);
          Alcotest.(check bool) "arriving differs from postponed" true
            (not (List.mem h.Algo.hit_arriving h.Algo.hit_postponed)))
        (Algo.hits rep))
    (seeds 10);
  Alcotest.(check bool) "at least one hit inspected" true !found

(* ------------------------------------------------------------------ *)
(* Figure 2: probability independent of k                              *)

let test_fig2_probability_one_for_all_k () =
  List.iter
    (fun k ->
      let r =
        Fuzzer.fuzz_pair ~seeds:(seeds 50)
          ~program:(fun () -> F2.program ~k ())
          F2.race_pair
      in
      Alcotest.(check int)
        (Printf.sprintf "k=%d: race always created" k)
        50 r.Fuzzer.race_trials)
    [ 1; 10; 100; 400 ]

let test_fig2_error_half_independent_of_k () =
  List.iter
    (fun k ->
      let r =
        Fuzzer.fuzz_pair ~seeds:(seeds 200)
          ~program:(fun () -> F2.program ~k ())
          F2.race_pair
      in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: ERROR rate ~0.5 (got %d/200)" k r.Fuzzer.error_trials)
        true
        (r.Fuzzer.error_trials > 60 && r.Fuzzer.error_trials < 140))
    [ 1; 100 ]

let test_fig2_simple_random_decays_with_k () =
  let errors_at k =
    let b =
      Fuzzer.baseline ~seeds:(seeds 200)
        ~make_strategy:Rf_runtime.Strategy.random
        (fun () -> F2.program ~k ())
    in
    b.Fuzzer.b_error_trials
  in
  let e_small = errors_at 1 and e_large = errors_at 200 in
  Alcotest.(check bool)
    (Printf.sprintf "small k has some errors (got %d)" e_small)
    true (e_small > 0);
  Alcotest.(check int) "large k has none" 0 e_large

let test_fig2_default_scheduler_never_errors () =
  let b =
    Fuzzer.baseline ~seeds:(seeds 50)
      ~make_strategy:(fun () -> Rf_runtime.Strategy.timesliced ~quantum:3 ())
      (fun () -> F2.program ~k:25 ())
  in
  Alcotest.(check int) "default scheduler: 0 errors" 0 b.Fuzzer.b_error_trials

(* ------------------------------------------------------------------ *)
(* Livelock relief and postpone timeout                                *)

let test_postpone_timeout_releases () =
  (* With an aggressive timeout, the thread postponed on the false pair is
     released by the relief mechanism rather than by deadlock eviction. *)
  let total_releases = ref 0 in
  List.iter
    (fun seed ->
      let _, rep =
        Fuzzer.replay ~postpone_timeout:(Some 1) ~seed ~program:F1.program
          F1.false_pair
      in
      total_releases := !total_releases + rep.Algo.timeout_releases)
    (seeds 20);
  Alcotest.(check bool) "timeout releases fired" true (!total_releases > 0)

(* A workload that leans on livelock relief: three writers park at the
   watched site on three *distinct* locations (so no two of them ever
   race and every arrival is postponed), while the main thread keeps the
   engine-step clock ticking at an unwatched site until the relief bound
   expires and the whole batch is released at once. *)
let timeout_heavy_program () =
  let open Rf_runtime.Api in
  let a = Cell.global "th-a" 0 in
  let b = Cell.global "th-b" 0 in
  let c = Cell.global "th-c" 0 in
  let spin = Cell.global "th-spin" 0 in
  let w_site = site "th-write" in
  let writer cell () =
    for _ = 1 to 5 do
      Cell.write ~site:w_site cell 1
    done
  in
  let h1 = fork ~name:"w1" (writer a) in
  let h2 = fork ~name:"w2" (writer b) in
  let h3 = fork ~name:"w3" (writer c) in
  let tick = site "th-tick" in
  (* several bursts with a sync point in between, so writers postponed
     between bursts age past the relief bound during the next one *)
  for _ = 1 to 10 do
    for _ = 1 to 100 do
      Cell.write ~site:tick spin 1
    done;
    sleep ()
  done;
  join h1;
  join h2;
  join h3

let timeout_heavy_pair () =
  Site.Pair.make (Rf_runtime.Api.site "th-write") (Rf_runtime.Api.site "th-read")

let test_timeout_heavy_replay_deterministic () =
  (* Stale postponed threads are collected from an unordered hash table;
     the release order must nevertheless be a pure function of the run
     state, so replaying a relief-heavy trial must reproduce the trace
     bit for bit. *)
  let pair = timeout_heavy_pair () in
  List.iter
    (fun seed ->
      let run () =
        Fuzzer.replay ~postpone_timeout:(Some 50) ~record_trace:true ~seed
          ~program:timeout_heavy_program pair
      in
      let o1, rep1 = run () in
      let o2, rep2 = run () in
      Alcotest.(check bool) "relief fired" true (rep1.Algo.timeout_releases > 0);
      Alcotest.(check int)
        "same relief count" rep1.Algo.timeout_releases rep2.Algo.timeout_releases;
      match (o1.Rf_runtime.Outcome.trace, o2.Rf_runtime.Outcome.trace) with
      | Some t1, Some t2 ->
          Alcotest.(check int)
            "same trace fingerprint"
            (Rf_events.Trace.fingerprint t1)
            (Rf_events.Trace.fingerprint t2);
          Alcotest.(check bool) "equal traces" true (Rf_events.Trace.equal t1 t2)
      | _ -> Alcotest.fail "trace not recorded")
    (seeds 10)

let test_timeout_unit_is_engine_steps () =
  (* The postpone timeout is measured on the engine-step clock
     ([view.step]), not in strategy consultations, so livelock relief
     fires under [`Every_op] and under the paper's [`Sync_and]
     configuration alike: unwatched memory accesses advance the clock
     even though they run inside the thread and never consult the
     strategy. *)
  let open Rf_runtime in
  let pair = timeout_heavy_pair () in
  let watch =
    Site.Set.add (Site.Pair.fst pair) (Site.Set.singleton (Site.Pair.snd pair))
  in
  List.iter
    (fun policy ->
      let releases = ref 0 in
      List.iter
        (fun seed ->
          let report = Algo.fresh_report () in
          let strategy = Algo.strategy ~postpone_timeout:(Some 50) ~pair ~report () in
          let outcome =
            Engine.run
              ~config:{ Engine.default_config with seed; policy; max_steps = 100_000 }
              ~strategy timeout_heavy_program
          in
          Alcotest.(check bool) "terminates" true (not outcome.Outcome.timed_out);
          releases := !releases + report.Algo.timeout_releases)
        (seeds 5);
      Alcotest.(check bool) "relief fires under this policy" true (!releases > 0))
    [ Engine.Every_op; Engine.Sync_and watch ]

let test_no_timeout_still_terminates () =
  List.iter
    (fun seed ->
      let o, _ =
        Fuzzer.replay ~postpone_timeout:None ~seed ~program:F1.program F1.false_pair
      in
      Alcotest.(check bool) "terminates without relief" true
        (not o.Rf_runtime.Outcome.timed_out))
    (seeds 10)

(* ------------------------------------------------------------------ *)
(* RAPOS baseline                                                      *)

let test_rapos_runs_figure1 () =
  List.iter
    (fun seed ->
      let o =
        Rf_runtime.Engine.run
          ~config:{ Rf_runtime.Engine.default_config with seed }
          ~strategy:(Rapos.strategy ()) F1.program
      in
      Alcotest.(check bool) "terminates" true
        ((not o.Rf_runtime.Outcome.timed_out) && o.Rf_runtime.Outcome.deadlocked = []))
    (seeds 25)

let test_rapos_deterministic () =
  let run seed =
    Rf_runtime.Engine.run
      ~config:{ Rf_runtime.Engine.default_config with seed; record_trace = true }
      ~strategy:(Rapos.strategy ()) F1.program
  in
  let o1 = run 5 and o2 = run 5 in
  match (o1.Rf_runtime.Outcome.trace, o2.Rf_runtime.Outcome.trace) with
  | Some t1, Some t2 ->
      Alcotest.(check bool) "rapos replayable" true (Rf_events.Trace.equal t1 t2)
  | _ -> Alcotest.fail "traces missing"

let test_rapos_weaker_than_racefuzzer_on_fig2 () =
  (* RAPOS samples partial orders uniformly-ish; with large k it should
     reach ERROR far less often than RaceFuzzer's directed 50%. *)
  let b =
    Fuzzer.baseline ~seeds:(seeds 100) ~make_strategy:Rapos.strategy
      (fun () -> F2.program ~k:200 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "rapos errors rare (got %d/100)" b.Fuzzer.b_error_trials)
    true
    (b.Fuzzer.b_error_trials < 20)

(* ------------------------------------------------------------------ *)
(* Listener failures escape the engine                                  *)

(* The main thread writes four fresh cells at an unwatched site, then
   two workers race on [x] at the watched sites. *)
let unwatched_first_program () =
  let open Rf_runtime.Api in
  let pre = site "uf-pre" in
  for _ = 1 to 4 do
    Cell.write ~site:pre (Cell.make 0) 1
  done;
  let x = Cell.make ~name:"x" 0 in
  let h1 = fork ~name:"w1" (fun () -> Cell.write ~site:(site "uf-w1") x 1) in
  let h2 = fork ~name:"w2" (fun () -> Cell.write ~site:(site "uf-w2") x 2) in
  join h1;
  join h2

let unwatched_first_pair () = Site.Pair.make (Site.make "uf-w1") (Site.make "uf-w2")

exception Listener_failed

(* A listener that raises at an unwatched access under [`Sync_and] makes
   [Engine.run] raise: the failure belongs to the harness, not to the
   model thread whose access was being reported.  Afterwards a memory
   operation outside any engine is unhandled again. *)
let test_listener_exception_escapes_run () =
  let open Rf_runtime in
  let pair = unwatched_first_pair () in
  let watch = Site.Set.of_list [ Site.Pair.fst pair; Site.Pair.snd pair ] in
  let listener = function
    | Rf_events.Event.Mem { site; _ } when not (Site.Set.mem site watch) ->
        raise Listener_failed
    | _ -> ()
  in
  Alcotest.check_raises "Engine.run raises the listener's exception" Listener_failed
    (fun () ->
      ignore
        (Engine.run
           ~config:{ Engine.default_config with policy = Engine.Sync_and watch }
           ~listeners:[ listener ]
           ~strategy:(Algo.strategy ~pair ~report:(Algo.fresh_report ()) ())
           unwatched_first_program));
  let o =
    Engine.run
      ~config:{ Engine.default_config with policy = Engine.Sync_and watch }
      ~strategy:(Strategy.random ()) unwatched_first_program
  in
  Alcotest.(check int) "a clean run afterwards raises nothing" 0
    (List.length o.Outcome.exceptions);
  match Api.Cell.read ~site:(Site.make "uf-outside") (Api.Cell.make 0) with
  | _ -> Alcotest.fail "a memory read outside an engine must be unhandled"
  | exception Effect.Unhandled _ -> ()

(* The same through the trial sandbox: a no-degrade governed detector
   passed as a listener stops the trial as budget-exhausted, instead of
   the trial completing with the stop recorded as the main thread's
   exception. *)
let test_no_degrade_listener_stops_trial () =
  let g = Rf_resource.Governor.create ~max_entries:2 ~no_degrade:true () in
  let d = Rf_detect.Detector.hybrid ~governor:g () in
  match
    Fuzzer.run_trial
      ~listeners:[ Rf_detect.Detector.feed d ]
      ~max_steps:Rf_runtime.Engine.default_config.max_steps
      ~program:unwatched_first_program (unwatched_first_pair ()) 0
  with
  | Fuzzer.Budget_exhausted { bx_reason; _ } ->
      Alcotest.(check bool) "detector budget" true
        (bx_reason = Rf_runtime.Outcome.Detector_budget)
  | Fuzzer.Completed t ->
      Alcotest.failf "trial completed with %d exception(s)"
        (List.length t.Fuzzer.t_outcome.Rf_runtime.Outcome.exceptions)
  | Fuzzer.Harness_crash (e, _) -> Alcotest.failf "harness crash %s" (Printexc.to_string e)

let () =
  Alcotest.run "racefuzzer_core"
    [
      ( "figure1",
        [
          Alcotest.test_case "real race confirmed" `Quick test_fig1_real_race_confirmed;
          Alcotest.test_case "ERROR1 ~half" `Quick test_fig1_error1_about_half;
          Alcotest.test_case "false alarm rejected" `Quick test_fig1_false_alarm_rejected;
          Alcotest.test_case "ERROR2 never" `Quick test_fig1_error2_never;
          Alcotest.test_case "end-to-end analysis" `Quick test_fig1_end_to_end_analysis;
          Alcotest.test_case "postponement/eviction" `Quick
            test_fig1_postponement_happens;
        ] );
      ( "replay",
        [
          Alcotest.test_case "trace reproduced" `Quick test_replay_reproduces_trace;
          Alcotest.test_case "error reproduced" `Quick
            test_replay_error_seed_reproduces_error;
          Alcotest.test_case "hit metadata" `Quick test_hit_metadata;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "probability 1 for all k" `Quick
            test_fig2_probability_one_for_all_k;
          Alcotest.test_case "error ~0.5 independent of k" `Quick
            test_fig2_error_half_independent_of_k;
          Alcotest.test_case "simple random decays" `Quick
            test_fig2_simple_random_decays_with_k;
          Alcotest.test_case "default scheduler blind" `Quick
            test_fig2_default_scheduler_never_errors;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "timeout releases" `Quick test_postpone_timeout_releases;
          Alcotest.test_case "relief-heavy replay deterministic" `Quick
            test_timeout_heavy_replay_deterministic;
          Alcotest.test_case "timeout unit is engine steps" `Quick
            test_timeout_unit_is_engine_steps;
          Alcotest.test_case "terminates without relief" `Quick
            test_no_timeout_still_terminates;
        ] );
      ( "listeners",
        [
          Alcotest.test_case "exception escapes the run" `Quick
            test_listener_exception_escapes_run;
          Alcotest.test_case "no-degrade detector stops the trial" `Quick
            test_no_degrade_listener_stops_trial;
        ] );
      ( "rapos",
        [
          Alcotest.test_case "runs figure1" `Quick test_rapos_runs_figure1;
          Alcotest.test_case "deterministic" `Quick test_rapos_deterministic;
          Alcotest.test_case "weaker on figure2" `Quick
            test_rapos_weaker_than_racefuzzer_on_fig2;
        ] );
    ]
