(* Record/replay/shrink tier.  A recording must replay bit-for-bit;
   divergence must be detected and located; the shrinker must be a
   fixpoint whose output still reproduces the recorded error. *)

open Rf_util
module Fuzzer = Racefuzzer.Fuzzer
module Schedule = Rf_replay.Schedule
module Replayer = Rf_replay.Replayer

let fig1 () = Rf_workloads.Figure1.program ()
let fig1_pair = Rf_workloads.Figure1.real_pair

(* The first seed whose figure1 trial under Algo ends in ERROR1. *)
let error_seed =
  lazy
    (let rec go s =
       if s > 199 then Alcotest.fail "figure1: no erroring seed in 0..199"
       else
         let tr = Fuzzer.run_trial_exn ~max_steps:10_000 ~program:fig1 fig1_pair s in
         match Schedule.error_fingerprint tr.Fuzzer.t_outcome with
         | Some _ -> s
         | None -> go (s + 1)
     in
     go 0)

let record_fig1 () =
  let seed = Lazy.force error_seed in
  Fuzzer.record_trial ~target:"figure1" ~max_steps:10_000 ~program:fig1 fig1_pair
    seed

(* 1. Exact replay of a full recording takes every recorded step and
   reproduces the recorded outcome exactly. *)
let test_exact_replay () =
  let trial, sched = record_fig1 () in
  Alcotest.(check bool)
    "recording carries an error" true
    (sched.Schedule.meta.Schedule.m_error <> None);
  let outcome, status = Fuzzer.replay_schedule ~mode:Replayer.Exact ~program:fig1 sched in
  Alcotest.(check int) "taken = length" (Schedule.length sched)
    status.Replayer.taken;
  Alcotest.(check bool) "no divergence" true (status.Replayer.divergence = None);
  Alcotest.(check bool) "no fallback" false status.Replayer.fell_back;
  Alcotest.(check int) "same step count" trial.Fuzzer.t_outcome.Rf_runtime.Outcome.steps
    outcome.Rf_runtime.Outcome.steps;
  Alcotest.(check (option string))
    "same error fingerprint" sched.Schedule.meta.Schedule.m_error
    (Schedule.error_fingerprint outcome)

(* 2. JSON round-trip, including through a file. *)
let test_json_roundtrip () =
  let _, sched = record_fig1 () in
  let sched' = Schedule.of_json (Schedule.to_json sched) in
  Alcotest.(check bool) "of_json . to_json = id" true (Schedule.equal sched sched');
  let file = Filename.temp_file "rf_test" ".sched.json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Schedule.save file sched;
      Alcotest.(check bool) "load . save = id" true
        (Schedule.equal sched (Schedule.load file)))

(* 3. A reader never guesses at a future format. *)
let test_version_drift () =
  let _, sched = record_fig1 () in
  let json = Schedule.to_json sched in
  let drift =
    (* Splice a bogus version over the (unique) real one. *)
    let sub = Schedule.version in
    let rec find i =
      if i + String.length sub > String.length json then
        Alcotest.fail "version tag not found in JSON"
      else if String.sub json i (String.length sub) = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub json 0 i ^ "rf-schedule/9"
    ^ String.sub json
        (i + String.length sub)
        (String.length json - i - String.length sub)
  in
  Alcotest.check_raises "version drift rejected"
    (Schedule.Format_error
       (Printf.sprintf "schedule version %S, this reader speaks %S" "rf-schedule/9"
          Schedule.version))
    (fun () -> ignore (Schedule.of_json drift))

(* 4. Divergence is detected at the first bad step and reported with its
   index. *)
let test_divergence_located () =
  let _, sched = record_fig1 () in
  let n = Schedule.length sched in
  Alcotest.(check bool) "recording is non-trivial" true (n >= 2);
  let bad = n - 1 in
  let steps = Array.copy sched.Schedule.steps in
  steps.(bad) <- { steps.(bad) with Schedule.st_tid = 97 };
  let mutated = Schedule.with_steps sched steps in
  let _, status = Fuzzer.replay_schedule ~mode:Replayer.Exact ~program:fig1 mutated in
  (match status.Replayer.divergence with
  | None -> Alcotest.fail "mutated schedule replayed without divergence"
  | Some d ->
      Alcotest.(check int) "divergence at the mutated step" bad d.Replayer.d_step;
      Alcotest.(check int) "expected tid is the mutated one" 97
        d.Replayer.d_expected_tid);
  Alcotest.(check bool) "fell back after divergence" true status.Replayer.fell_back

(* 5. Strict mode raises instead of falling back. *)
let test_strict_raises () =
  let _, sched = record_fig1 () in
  let steps = Array.copy sched.Schedule.steps in
  steps.(0) <- { steps.(0) with Schedule.st_tid = 97 };
  let mutated = Schedule.with_steps sched steps in
  match Fuzzer.replay_schedule ~mode:Replayer.Strict ~program:fig1 mutated with
  | exception Replayer.Diverged d ->
      Alcotest.(check int) "raised at step 0" 0 d.Replayer.d_step
  | _ -> Alcotest.fail "Strict replay of a mutated schedule did not raise"

(* 6. The minimized schedule reproduces, and minimization is idempotent:
   re-minimizing moves nothing. *)
let test_shrink_reproduces_and_fixpoint () =
  let _, sched = record_fig1 () in
  match Fuzzer.minimize_schedule ~program:fig1 sched with
  | None -> Alcotest.fail "minimization lost the error"
  | Some (min1, st1) ->
      Alcotest.(check bool) "shrunk, not grown" true
        (st1.Rf_replay.Shrinker.sh_steps_after
        <= st1.Rf_replay.Shrinker.sh_steps_before);
      let outcome, status = Fuzzer.replay_schedule ~program:fig1 min1 in
      Alcotest.(check bool) "minimized replay has no divergence" true
        (status.Replayer.divergence = None);
      Alcotest.(check (option string))
        "minimized replay reproduces the fingerprint"
        sched.Schedule.meta.Schedule.m_error
        (Schedule.error_fingerprint outcome);
      (match Fuzzer.minimize_schedule ~program:fig1 min1 with
      | None -> Alcotest.fail "re-minimization lost the error"
      | Some (min2, _) ->
          Alcotest.(check (pair int int))
            "idempotent: (steps, switches) is a fixpoint"
            (Schedule.length min1, Schedule.switches min1)
            (Schedule.length min2, Schedule.switches min2))

(* 7. Shrinking never returns a longer schedule than it was given: at
   every fuel, re-minimizing a minimized schedule measures no more than
   it did, even when the fuel runs out before the search can confirm a
   short prefix of the re-recorded run. *)
let test_shrink_never_grows () =
  let _, sched = record_fig1 () in
  let min1 =
    match Fuzzer.minimize_schedule ~program:fig1 sched with
    | Some (m, _) -> m
    | None -> Alcotest.fail "minimization lost the error"
  in
  let measure s = (Schedule.length s, Schedule.switches s) in
  for fuel = 1 to 6 do
    match Fuzzer.minimize_schedule ~fuel ~program:fig1 min1 with
    | None -> Alcotest.failf "fuel %d: lost the error" fuel
    | Some (m, _) ->
        if measure m > measure min1 then
          Alcotest.failf "fuel %d: (steps, switches) %d/%d grew to %d/%d" fuel
            (Schedule.length min1) (Schedule.switches min1) (Schedule.length m)
            (Schedule.switches m)
  done

(* 8. QCheck: over arbitrary well-formed RFL programs, recording any
   phase-2 trial and replaying it exactly reproduces the outcome — same
   error fingerprint, no divergence — and the schedule survives JSON. *)
let prop_record_replay_roundtrip =
  QCheck.Test.make ~name:"record -> replay reproduces on generated programs"
    ~count:20
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let main = Rf_lang.Lang.program ~print:ignore prog in
      let pairs =
        Site.Pair.Set.elements
          (Fuzzer.potential_pairs (Fuzzer.phase1 ~seeds:[ 0; 1 ] ~max_steps:100_000 main))
      in
      (* Bound the cost: two candidate pairs per generated program. *)
      let pairs = List.filteri (fun i _ -> i < 2) pairs in
      List.for_all
        (fun pair ->
          let trial, sched =
            Fuzzer.record_trial ~max_steps:100_000 ~program:main pair seed
          in
          let sched = Schedule.of_json (Schedule.to_json sched) in
          let outcome, status = Fuzzer.replay_schedule ~program:main sched in
          status.Replayer.divergence = None
          && (not status.Replayer.fell_back)
          && status.Replayer.taken = Schedule.length sched
          && outcome.Rf_runtime.Outcome.steps
             = trial.Fuzzer.t_outcome.Rf_runtime.Outcome.steps
          && Schedule.error_fingerprint outcome
             = sched.Schedule.meta.Schedule.m_error)
        pairs)

let () =
  Alcotest.run "replay"
    [
      ( "unit",
        [
          Alcotest.test_case "exact replay reproduces" `Quick test_exact_replay;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "version drift rejected" `Quick test_version_drift;
          Alcotest.test_case "divergence located" `Quick test_divergence_located;
          Alcotest.test_case "strict mode raises" `Quick test_strict_raises;
          Alcotest.test_case "shrink reproduces + fixpoint" `Slow
            test_shrink_reproduces_and_fixpoint;
          Alcotest.test_case "shrink never grows" `Quick test_shrink_never_grows;
        ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest prop_record_replay_roundtrip ] );
    ]
