(* racefuzzer — command-line interface.

   Subcommands:
     run       execute an RFL program under a chosen scheduler
     detect    phase 1: report potential races in an RFL program or workload
     fuzz      full two-phase analysis of an RFL program
     replay    re-run an execution: recorded schedule file, or RFL seed+pair
     shrink    minimize a recorded failing schedule by delta debugging
     deadlock  deadlock-directed testing (Goodlock cycles + postponement)
     atomicity atomicity-directed testing (split transactions)
     campaign  parallel whole-program campaign over a domain pool or
               crash-isolated worker processes (--workers)
     corpus    list/verify a persistent cross-campaign corpus
     workload  analyze a built-in Table-1 workload analogue
     list      list built-in workloads
     table1    regenerate the paper's Table 1
     figure2   regenerate the paper's Figure 2 series *)

open Cmdliner
open Rf_util

let strategy_of_name = function
  | "random" -> Ok (Rf_runtime.Strategy.random ())
  | "round-robin" | "rr" -> Ok (Rf_runtime.Strategy.round_robin ())
  | "default" | "timesliced" -> Ok (Rf_runtime.Strategy.timesliced ())
  | "run-until-block" -> Ok (Rf_runtime.Strategy.run_until_block ())
  | "rapos" -> Ok (Racefuzzer.Rapos.strategy ())
  | s -> Error (Fmt.str "unknown strategy %S" s)

(* ------------------------------------------------------------------ *)
(* Common arguments.  Each flag is declared once: here when several
   subcommands take it, otherwise in its subcommand.  A flag that sets a
   campaign setting takes its default from the subcommand's
   configuration (Campaign.default_config, or Service.default_config for
   serve). *)

module Campaign = Rf_campaign.Campaign
module Service = Rf_campaign.Service

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"RFL source file.")

let target_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"TARGET" ~doc:"RFL source file or built-in workload name.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed (replayable).")

(* Seed and trial counts, budgets and fuel: a negative one is a usage
   error (exit 124). *)
let count =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (`Msg (Fmt.str "invalid value '%s', expected a non-negative integer" s))
  in
  Arg.conv (parse, Fmt.int)

(* A count of seeds as the seed list 0..n-1. *)
let seeds n = List.init n Fun.id

let trials_arg default =
  Arg.(
    value & opt count default
    & info [ "trials" ] ~docv:"N"
        ~doc:
          "Number of seeds/trials per experiment; for a campaign or a serve \
           wave, trial seeds per candidate pair.")

let phase1_seeds_arg default =
  Arg.(
    value & opt count default
    & info [ "phase1-seeds" ] ~docv:"N"
        ~doc:
          "Executions observed by hybrid detection (in serve, by each wave's \
           phase 1 per target).")

let strategy_arg =
  Arg.(
    value
    & opt string "random"
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:"Scheduler: random, round-robin, default, run-until-block, rapos.")

(* Print [m] to stderr and exit with [code]. *)
let fail ?(code = 1) m =
  Fmt.epr "%s@." m;
  exit code

let or_fail ?code = function Ok x -> x | Error m -> fail ?code m

let load file =
  try Ok (Rf_lang.Lang.load_file file) with
  | Rf_lang.Lang.Error m -> Error m
  | Sys_error m -> Error m

(* A TARGET is a built-in workload name or an RFL file: its program and,
   forced only by callers that classify pairs, its static model. *)
let resolve_target target =
  match Rf_workloads.Registry.find target with
  | Some w ->
      Ok (w.Rf_workloads.Workload.program, lazy w.Rf_workloads.Workload.static)
  | None -> (
      match load target with
      | Ok prog ->
          Ok
            ( Rf_lang.Lang.program ~print:ignore prog,
              lazy (Some (Rf_static.Static.of_program prog)) )
      | Error m ->
          Error
            (Fmt.str
               "%S is neither a built-in workload (see 'racefuzzer list') nor a \
                loadable RFL file:@.%s"
               target m))

(* Phase-1 detectors by name, for 'detect'. *)

let detector_arg =
  Arg.(
    value & opt string "hybrid"
    & info [ "detector" ] ~docv:"NAME"
        ~doc:"hybrid, hb (precise), or eraser.")

let detector_maker = function
  | "hybrid" -> fun ?governor () -> Rf_detect.Detector.hybrid ~cap:128 ?governor ()
  | "hb" | "happens-before" -> Rf_detect.Detector.hb_precise ~cap:128
  | "eraser" -> Rf_detect.Detector.eraser ~site_cap:16
  | s -> fail (Fmt.str "unknown detector %S" s)

(* Journal, worker fleet and chaos flags, shared by 'campaign' and
   'serve'. *)

let log_arg =
  Arg.(
    value & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL progress/event log to $(docv) (in serve, one log \
           shared by all campaign waves).")

let open_log = function
  | Some path -> (
      try Rf_campaign.Event_log.open_file path
      with Sys_error m -> fail ("cannot open event log: " ^ m))
  | None -> Rf_campaign.Event_log.null ()

let domains_arg default =
  Arg.(
    value & opt int default
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains draining the trial queue (in serve, of each campaign wave).")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Shard phase-2 trials across $(docv) supervised worker processes \
           (a hidden 'campaign-worker' mode of this executable) instead of \
           in-process domains.  Workers are crash-isolated — a segfault, \
           OOM or spin kills one worker, which is respawned with \
           exponential backoff while its trial is requeued — and results \
           merge deterministically: the campaign fingerprint is \
           byte-identical to an in-process run.  0 (the default) keeps the \
           in-process domain pool; when workers cannot be spawned the \
           campaign degrades to it silently ('serve status' shows the \
           degraded fleet).")

let worker_deadline_arg =
  Arg.(
    value & opt float Rf_campaign.Proc_pool.default_heartbeat
    & info [ "worker-deadline" ] ~docv:"SECS"
        ~doc:
          "Heartbeat deadline for --workers: a worker holding an \
           assignment longer than $(docv) without replying is SIGKILLed \
           and its trial requeued.")

(* The phase-2 worker processes; 0 workers keeps the in-process pool.
   The campaign names the target in the workers' init frame. *)
let worker_fleet ?mem_mb ?cpu_s workers deadline =
  if workers <= 0 then None
  else
    Some
      {
        Rf_campaign.Proc_pool.sp_cmd = [| Sys.executable_name; "campaign-worker" |];
        sp_workers = workers;
        sp_heartbeat = deadline;
        sp_rlimit_as_mb = mem_mb;
        sp_rlimit_cpu_s = cpu_s;
        sp_policy = Rf_campaign.Supervisor.default_policy;
        sp_target = "";
      }

let chaos_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "chaos-seed" ] ~docv:"N" ~doc:"Seed for the chaos fault plan.")

let chaos_kill_arg =
  Arg.(
    value & opt (some int) None
    & info [ "chaos-kill-assignment" ] ~docv:"N"
        ~doc:
          "Multi-process chaos: the worker receiving the Nth dispatched \
           assignment (in serve, of each campaign wave) SIGKILLs itself — a \
           real process death exercising reap, requeue and respawn.  \
           Liveness-only: results and fingerprints are unchanged.  Usable \
           without --chaos.")

(* Static-filter and resource-governance flags, shared by 'fuzz' and
   'campaign'. *)

let static_filter_arg =
  Arg.(
    value & flag
    & info [ "static-filter" ]
        ~doc:
          "Skip phase-2 fuzzing of candidate pairs the static pre-filter proves \
           cannot race (consistent common lock, single thread, read-read, or \
           fork/join ordering); surviving pairs are fuzzed Likely-first.  \
           Filtered pairs are journaled with their proof reason; \
           confirmed-race results are unchanged — the filter is sound and \
           only removes work.  Requires a static model: built-in workloads \
           carry one, RFL files are analyzed directly; without one the flag \
           warns and is a no-op.")

let detector_budget_arg =
  Arg.(
    value & opt (some count) None
    & info [ "detector-budget" ] ~docv:"N"
        ~doc:
          "Cap detector analysis state at $(docv) logical entries.  Over budget, \
           the run steps down the degradation ladder (full -> sampled -> \
           lockset-only) and completes with explicitly degraded results instead \
           of growing without bound.  Deterministic: same seed, same ladder \
           level, same fingerprint, on any --domains.")

let mem_budget_arg =
  Arg.(
    value & opt (some float) None
    & info [ "mem-budget" ] ~docv:"MB"
        ~doc:
          "Heap watermark in megabytes, polled at the engine's watchdog points — \
           a physical backstop behind --detector-budget.  Crossing it degrades \
           the run one ladder rung (and cancels the trial once at the bottom \
           rung).  Unlike --detector-budget this is not determinism-preserving.")

let no_degrade_arg =
  Arg.(
    value & flag
    & info [ "no-degrade" ]
        ~doc:
          "Fail fast instead of degrading: the first budget trip cancels the \
           trial (campaign phase 2) or aborts the analysis (phase 1, exit 2).")

let pp_p1_degraded (a : Racefuzzer.Fuzzer.analysis) =
  match a.Racefuzzer.Fuzzer.a_phase1.Racefuzzer.Fuzzer.p1_degraded with
  | Some s ->
      Fmt.pr "DEGRADED: phase 1 completed at %s precision (resource budget)@."
        (Rf_resource.Governor.level_to_string s.Rf_resource.Governor.g_level)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")
  in
  let action file seed strategy trace =
    let prog = or_fail (load file) in
    let strat = or_fail (strategy_of_name strategy) in
    let o =
      Rf_runtime.Engine.run
        ~config:{ Rf_runtime.Engine.default_config with seed; record_trace = trace }
        ~strategy:strat (Rf_lang.Lang.program prog)
    in
    Fmt.pr "%a@." Rf_runtime.Outcome.pp o;
    (match o.Rf_runtime.Outcome.trace with
    | Some tr when trace -> Fmt.pr "@.%a" Rf_events.Trace.pp tr
    | _ -> ());
    if not (Rf_runtime.Outcome.ok o) then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute an RFL program under a chosen scheduler.")
    Term.(const action $ file_arg $ seed_arg $ strategy_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* detect                                                              *)

let detect_cmd =
  let action target detector trials =
    let main, _ = or_fail (resolve_target target) in
    let d = detector_maker detector () in
    List.iter
      (fun seed ->
        ignore
          (Rf_runtime.Engine.run
             ~config:{ Rf_runtime.Engine.default_config with seed }
             ~listeners:[ Rf_detect.Detector.feed d ]
             ~strategy:(Rf_runtime.Strategy.random ()) main))
      (seeds trials);
    let races = Rf_detect.Detector.races d in
    Fmt.pr "%s: %d potential racing statement pair(s)@."
      (Rf_detect.Detector.name d)
      (List.length races);
    List.iter (fun r -> Fmt.pr "  %a@." Rf_detect.Race.pp r) races
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Phase 1: report potential races in an RFL program.")
    Term.(
      const action $ target_arg $ detector_arg
      $ trials_arg (List.length Campaign.default_config.phase1_seeds))

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let print_analysis (a : Racefuzzer.Fuzzer.analysis) =
  let potential = Racefuzzer.Fuzzer.potential_pairs a.Racefuzzer.Fuzzer.a_phase1 in
  Fmt.pr "phase 1: %d potential racing pair(s)@." (Site.Pair.Set.cardinal potential);
  List.iter
    (fun (r : Racefuzzer.Fuzzer.pair_result) ->
      let n = List.length r.Racefuzzer.Fuzzer.trials in
      let verdict =
        if Racefuzzer.Fuzzer.is_harmful r then "REAL RACE — HARMFUL"
        else if Racefuzzer.Fuzzer.is_real r then "REAL RACE (benign here)"
        else "false alarm"
      in
      Fmt.pr "  %a: race %d/%d, errors %d, deadlocks %d -> %s@." Site.Pair.pp
        r.Racefuzzer.Fuzzer.pr_pair r.Racefuzzer.Fuzzer.race_trials n
        r.Racefuzzer.Fuzzer.error_trials r.Racefuzzer.Fuzzer.deadlock_trials verdict;
      Option.iter
        (fun seed -> Fmt.pr "      replay race with:  --seed %d@." seed)
        r.Racefuzzer.Fuzzer.race_seed;
      Option.iter
        (fun seed -> Fmt.pr "      replay error with: --seed %d@." seed)
        r.Racefuzzer.Fuzzer.error_seed)
    a.Racefuzzer.Fuzzer.results;
  Fmt.pr "summary: %d real (%d harmful) of %d potential@."
    (Site.Pair.Set.cardinal a.Racefuzzer.Fuzzer.real_pairs)
    (Site.Pair.Set.cardinal a.Racefuzzer.Fuzzer.error_pairs)
    (Site.Pair.Set.cardinal potential)

let fuzz_cmd =
  let d = Campaign.default_config in
  let action file p1 trials static_filter detector_budget mem_budget no_degrade =
    let prog = or_fail (load file) in
    let main = Rf_lang.Lang.program ~print:ignore prog in
    let static = Rf_static.Static.of_program prog in
    match
      Racefuzzer.Fuzzer.analyze ~phase1_seeds:(seeds p1) ~seeds_per_pair:(seeds trials)
        ~static ~static_filter ?detector_budget ?mem_budget ~no_degrade main
    with
    | a ->
        pp_p1_degraded a;
        List.iter
          (fun (p, v) ->
            Fmt.pr "filtered: %a — %s@." Site.Pair.pp p
              (Rf_static.Static.verdict_to_string v))
          a.Racefuzzer.Fuzzer.a_filtered;
        print_analysis a
    | exception Rf_resource.Governor.Budget_stop trigger ->
        Fmt.epr "resource budget exhausted (%s) under --no-degrade@."
          (Rf_resource.Governor.trigger_to_string trigger);
        exit 2
    | exception e ->
        (* The sequential driver is unsandboxed: a harness crash aborts
           the analysis.  Use 'campaign' for fault-tolerant runs. *)
        Fmt.epr "harness crash: %s@.%s@." (Printexc.to_string e)
          (Printexc.get_backtrace ());
        exit 2
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Full two-phase RaceFuzzer analysis of an RFL program. With \
          --detector-budget/--mem-budget, phase 1 runs resource-governed and \
          degrades gracefully instead of exhausting memory.")
    Term.(
      const action $ file_arg
      $ phase1_seeds_arg (List.length d.phase1_seeds)
      $ trials_arg (List.length d.seeds_per_pair)
      $ static_filter_arg
      $ detector_budget_arg $ mem_budget_arg $ no_degrade_arg)

(* ------------------------------------------------------------------ *)
(* replay / shrink                                                     *)

(* A recorded schedule names its target program; resolve it the same way
   'campaign' resolves its TARGET argument, so artifacts written by
   'campaign --repro-dir' replay without extra flags. *)
let schedule_program target =
  if target = "" then
    Error "schedule records no target program (empty \"target\" field)"
  else
    match resolve_target target with
    | Ok (program, _) -> Ok program
    | Error m -> Error ("schedule target " ^ m)

(* A *.sched.json positional is replayed from its recording; anything else
   is treated as an RFL file for the historical seed-based replay. *)
let is_schedule_file file =
  Filename.check_suffix file ".sched.json"
  ||
  match open_in_bin file with
  | ic ->
      let len = min 256 (in_channel_length ic) in
      let head = really_input_string ic len in
      close_in ic;
      let rec find i =
        i + 11 <= String.length head
        && (String.sub head i 11 = "rf-schedule" || find (i + 1))
      in
      find 0
  | exception Sys_error _ -> false

(* A recorded schedule and its target program; exit 4 when the file
   cannot be read, 1 when the target does not resolve. *)
let load_schedule file =
  let sched =
    try Rf_replay.Schedule.load file
    with Rf_replay.Schedule.Format_error m | Sys_error m -> fail ~code:4 m
  in
  let target = sched.Rf_replay.Schedule.meta.Rf_replay.Schedule.m_target in
  (sched, or_fail (schedule_program target))

let replay_schedule_action file verbose =
  let sched, program = load_schedule file in
  let meta = sched.Rf_replay.Schedule.meta in
  Fmt.pr "%a@." Rf_replay.Schedule.pp sched;
  if verbose then Fmt.pr "@.%a@." Rf_replay.Schedule.pp_narrative sched;
  let o, status = Racefuzzer.Fuzzer.replay_schedule ~program sched in
  Fmt.pr "%a@." Rf_runtime.Outcome.pp o;
  let got = Rf_replay.Schedule.error_fingerprint o in
  (match status.Rf_replay.Replayer.divergence with
  | Some d ->
      Fmt.epr "DIVERGED at %a@." Rf_replay.Replayer.pp_divergence d;
      exit 4
  | None -> ());
  let want = meta.Rf_replay.Schedule.m_error in
  if got = want then
    Fmt.pr "reproduced: %s@."
      (match want with Some e -> e | None -> "clean run (no error recorded)")
  else begin
    Fmt.epr "MISMATCH: schedule records %s, replay produced %s@."
      (match want with Some e -> e | None -> "no error")
      (match got with Some e -> e | None -> "no error");
    exit 4
  end

let replay_cmd =
  let pair_arg =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "pair" ] ~docv:"L1:L2"
          ~doc:"Racing pair as two source line numbers (seed-replay mode).")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "narrative" ] ~doc:"Print every scheduling decision before replaying.")
  in
  let action file seed pair_opt verbose =
    if is_schedule_file file then replay_schedule_action file verbose
    else
      let prog = or_fail (load file) in
      let l1, l2 =
        match pair_opt with
        | Some p -> p
        | None ->
            fail
              "--pair L1:L2 is required to replay an RFL file from a seed (schedule \
               files carry their pair)"
      in
      let base = Filename.basename file in
      (* sites are registered as statements execute: warm the registry
         with a few throwaway runs so line lookup sees all sites *)
      let warm = Rf_lang.Lang.program ~print:ignore prog in
      List.iter
        (fun s ->
          ignore
            (Rf_runtime.Engine.run
               ~config:{ Rf_runtime.Engine.default_config with seed = s }
               ~strategy:(Rf_runtime.Strategy.random ()) warm))
        [ 0; 1; 2 ];
      let sites_at l = Site.find_by_line ~file:base ~line:l in
      match (sites_at l1, sites_at l2) with
      | s1 :: _, s2 :: _ ->
          let main = Rf_lang.Lang.program prog in
          let pair = Site.Pair.make s1 s2 in
          let o, report = Racefuzzer.Fuzzer.replay ~seed ~program:main pair in
          List.iter
            (fun h -> Fmt.pr "%a@." Racefuzzer.Algo.pp_hit h)
            (Racefuzzer.Algo.hits report);
          Fmt.pr "%a@." Rf_runtime.Outcome.pp o
      | _ -> fail (Fmt.str "no statement sites found on lines %d/%d of %s" l1 l2 base)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay an execution: from a recorded *.sched.json schedule (step-exact, \
          validating each decision), or from an RFL file with --seed/--pair (paper \
          §2.2 seed replay). Exit status for schedules: 0 when the recorded error \
          fingerprint is reproduced without divergence, 4 on divergence, \
          fingerprint mismatch, or an unreadable/corrupt schedule file.")
    Term.(const action $ file_arg $ seed_arg $ pair_arg $ verbose_arg)

let shrink_cmd =
  let sched_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"SCHEDULE" ~doc:"Recorded *.sched.json schedule to minimize.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the minimized schedule to $(docv) (default: SCHEDULE with a \
                .min.sched.json suffix).")
  in
  let fuel_arg =
    Arg.(
      value & opt int 400
      & info [ "fuel" ] ~docv:"N" ~doc:"Maximum oracle executions spent minimizing.")
  in
  let action file out fuel =
    let sched, program = load_schedule file in
    match Racefuzzer.Fuzzer.minimize_schedule ~fuel ~program sched with
    | None ->
        Fmt.epr "cannot reproduce the schedule's error (%s) — nothing to minimize@."
          (match sched.Rf_replay.Schedule.meta.Rf_replay.Schedule.m_error with
          | Some e -> e
          | None -> "none recorded");
        exit 4
    | Some (minimized, stats) ->
        let out =
          match out with
          | Some o -> o
          | None ->
              (if Filename.check_suffix file ".sched.json" then
                 Filename.chop_suffix file ".sched.json"
               else file)
              ^ ".min.sched.json"
        in
        Rf_replay.Schedule.save out minimized;
        Fmt.pr "%a@." Rf_replay.Shrinker.pp_stats stats;
        Fmt.pr "minimized schedule: %s@." out
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Minimize a recorded failing schedule by delta debugging: shortest \
          reproducing prefix, ddmin chunk deletion and context-switch coalescing, \
          every candidate validated by re-execution. Exit status: 0 on success, 4 \
          when the schedule's error cannot be reproduced at all or the schedule \
          file is unreadable/corrupt.")
    Term.(const action $ sched_arg $ out_arg $ fuel_arg)

(* ------------------------------------------------------------------ *)
(* deadlock                                                            *)

let deadlock_cmd =
  let action file trials =
    let main = Rf_lang.Lang.program ~print:ignore (or_fail (load file)) in
    let results =
      Racefuzzer.Deadlock_fuzzer.analyze
        ~phase1_seeds:Campaign.default_config.phase1_seeds
        ~seeds_per_candidate:(seeds trials) main
    in
    if results = [] then Fmt.pr "no potential lock-order cycles found@."
    else
      List.iter
        (fun (r : Racefuzzer.Deadlock_fuzzer.candidate_result) ->
          Fmt.pr "%a@."
            Rf_detect.Goodlock.pp_candidate r.Racefuzzer.Deadlock_fuzzer.dc_candidate;
          Fmt.pr "  realized in %d/%d trials -> %s@."
            r.Racefuzzer.Deadlock_fuzzer.dc_deadlock_trials
            r.Racefuzzer.Deadlock_fuzzer.dc_trials
            (if Racefuzzer.Deadlock_fuzzer.is_real r then "REAL DEADLOCK"
             else "false alarm");
          Option.iter
            (fun seed -> Fmt.pr "  replay with seed %d@." seed)
            r.Racefuzzer.Deadlock_fuzzer.dc_seed)
        results
  in
  Cmd.v
    (Cmd.info "deadlock"
       ~doc:
         "Deadlock-directed testing: find lock-order cycles and try to realize \
          them (paper §1 generalization).")
    Term.(const action $ file_arg $ trials_arg 50)

(* ------------------------------------------------------------------ *)
(* atomicity                                                           *)

let atomicity_cmd =
  let action file trials =
    let main = Rf_lang.Lang.program ~print:ignore (or_fail (load file)) in
    let results =
      Racefuzzer.Atom_fuzzer.analyze
        ~phase1_seeds:Campaign.default_config.phase1_seeds
        ~seeds_per_candidate:(seeds trials) main
    in
    if results = [] then Fmt.pr "no split transactions found@."
    else
      List.iter
        (fun (r : Racefuzzer.Atom_fuzzer.candidate_result) ->
          Fmt.pr "%a@." Rf_detect.Atomicity.pp_candidate
            r.Racefuzzer.Atom_fuzzer.ac_candidate;
          Fmt.pr "  violated in %d/%d trials (%d with uncaught exceptions) -> %s@."
            r.Racefuzzer.Atom_fuzzer.ac_violation_trials
            r.Racefuzzer.Atom_fuzzer.ac_trials
            r.Racefuzzer.Atom_fuzzer.ac_error_trials
            (if Racefuzzer.Atom_fuzzer.is_harmful r then "REAL, HARMFUL"
             else if Racefuzzer.Atom_fuzzer.is_real r then "REAL (benign here)"
             else "not realized");
          Option.iter
            (fun seed -> Fmt.pr "  replay with seed %d@." seed)
            r.Racefuzzer.Atom_fuzzer.ac_seed)
        results
  in
  Cmd.v
    (Cmd.info "atomicity"
       ~doc:
         "Atomicity-directed testing: find split lock-protected transactions and \
          land interfering writes in the gap (paper §1 generalization).")
    Term.(const action $ file_arg $ trials_arg 50)

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)

let campaign_cmd =
  let d = Campaign.default_config in
  let budget_arg =
    Arg.(
      value & opt (some count) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Total trial budget across all pairs; trials freed by early cutoff are \
             reallocated to unresolved pairs (default: pairs x trials).")
  in
  let no_cutoff_arg =
    Arg.(
      value & flag
      & info [ "no-cutoff" ]
          ~doc:
            "Disable early cutoff: run every granted trial, making the result \
             bit-identical to the sequential 'fuzz' analysis.")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Inject deterministic faults (harness crashes, stalls, worker deaths) to \
             exercise the campaign's sandboxing, supervision and quarantine paths. \
             Faults are pure functions of --chaos-seed, so chaos runs are \
             reproducible.")
  in
  let chaos_stop_arg =
    Arg.(
      value & opt (some int) None
      & info [ "chaos-stop-after" ] ~docv:"N"
          ~doc:
            "Request a graceful stop after N executed trials — a deterministic \
             'kill' for checkpoint/resume testing.")
  in
  let trial_deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "trial-deadline" ] ~docv:"SECS"
          ~doc:"Cancel any single trial that runs longer than $(docv) wall-clock.")
  in
  let resume_arg =
    Arg.(
      value & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from the JSONL journal of an earlier interrupted run: trials it \
             already settled are replayed instead of re-executed, and the final \
             report is identical to an uninterrupted run's.")
  in
  let repro_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:
            "After the campaign, write one minimized reproduction schedule \
             (repro-*.sched.json, with a human-readable repro-*.txt narrative) per \
             distinct error fingerprint into $(docv); replay them with 'racefuzzer \
             replay FILE'.")
  in
  let repro_fuel_arg =
    Arg.(
      value & opt count d.repro_fuel
      & info [ "repro-fuel" ] ~docv:"N"
          ~doc:"Maximum oracle executions per schedule minimization.")
  in
  let offline_detect_arg =
    Arg.(
      value & flag
      & info [ "offline-detect" ]
          ~doc:
            "Detect phase 1 on --offline-shards re-executions of the phase-1 \
             seeds: an execution is a pure function of its seed, so each \
             shard re-runs it and its hybrid detector sees every \
             synchronization event but only its own slice of the memory \
             locations.  The candidate pair set — and both campaign \
             fingerprints — are identical to inline detection; one shard is \
             inline detection.")
  in
  let offline_shards_arg =
    Arg.(
      value & opt int d.offline_shards
      & info [ "offline-shards" ] ~docv:"N"
          ~doc:
            "Shard phase-1 detection by memory location over $(docv) \
             re-executions on parallel domains, one after another under \
             --detector-budget or --mem-budget (requires --offline-detect).  \
             Verdicts are merged deterministically and equal the single-shard \
             result.")
  in
  let worker_mem_arg =
    Arg.(
      value & opt (some int) None
      & info [ "worker-mem" ] ~docv:"MB"
          ~doc:
            "Per-worker address-space rlimit (ulimit -v) in megabytes: a \
             worker allocating past it dies alone and its trial is journaled \
             as a crash, instead of taking the whole campaign down.")
  in
  let worker_cpu_arg =
    Arg.(
      value & opt (some int) None
      & info [ "worker-cpu" ] ~docv:"SECS"
          ~doc:"Per-worker CPU-seconds rlimit (ulimit -t).")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Accumulate campaign artifacts into a persistent cross-campaign \
             corpus at $(docv): every distinct error fingerprint (with its \
             minimized repro schedule) and degraded-run record is stored \
             once and deduplicated across runs.  Inspect with \
             'racefuzzer corpus list/verify'.")
  in
  let chaos_torn_arg =
    Arg.(
      value & opt (some int) None
      & info [ "chaos-torn-frame" ] ~docv:"N"
          ~doc:
            "Multi-process chaos: the worker holding the Nth assignment \
             replies with a deliberately corrupted IPC frame, which the \
             supervisor must reject with a precise checksum error and treat \
             as a worker death.  Liveness-only; usable without --chaos.")
  in
  let chaos_hang_arg =
    Arg.(
      value & opt (some int) None
      & info [ "chaos-hang-assignment" ] ~docv:"N"
          ~doc:
            "Multi-process chaos: the worker holding the Nth assignment \
             hangs forever, forcing the --worker-deadline SIGKILL path.  \
             Liveness-only; usable without --chaos.")
  in
  let chaos =
    (* Proc faults are liveness-only (they never change results), so
       they are usable without --chaos: alone they ride an otherwise
       empty plan, preserving fingerprint parity with fault-free runs. *)
    let make chaos_flag chaos_seed stop_after kill torn hang =
      if not (chaos_flag || kill <> None || torn <> None || hang <> None) then None
      else
        let base =
          if chaos_flag then Rf_campaign.Chaos.default chaos_seed
          else Rf_campaign.Chaos.plan chaos_seed
        in
        Some
          {
            base with
            Rf_campaign.Chaos.c_stop_after = stop_after;
            c_kill_assignment = kill;
            c_torn_frame = torn;
            c_hang_assignment = hang;
          }
    in
    Term.(
      const make $ chaos_arg $ chaos_seed_arg $ chaos_stop_arg $ chaos_kill_arg
      $ chaos_torn_arg $ chaos_hang_arg)
  in
  let proc =
    let make workers deadline mem_mb cpu_s =
      worker_fleet ?mem_mb ?cpu_s workers deadline
    in
    Term.(
      const make $ workers_arg $ worker_deadline_arg $ worker_mem_arg $ worker_cpu_arg)
  in
  (* The campaign settings the flags set; the action adds the target,
     its static model and the rotated resume journal. *)
  let config =
    let make domains budget no_cutoff p1 trials chaos trial_deadline resume repro_dir
        repro_fuel static_filter detector_budget mem_budget no_degrade offline_detect
        offline_shards proc corpus =
      {
        d with
        Campaign.domains;
        phase1_seeds = seeds p1;
        seeds_per_pair = seeds trials;
        cutoff = not no_cutoff;
        budget;
        chaos;
        trial_deadline;
        resume;
        detector_budget;
        mem_budget;
        no_degrade;
        proc;
        repro_dir;
        repro_fuel;
        static_filter;
        (* one shard is inline detection *)
        offline_shards = (if offline_detect then offline_shards else 1);
        corpus;
      }
    in
    Term.(
      const make $ domains_arg d.domains $ budget_arg $ no_cutoff_arg
      $ phase1_seeds_arg (List.length d.phase1_seeds)
      $ trials_arg (List.length d.seeds_per_pair)
      $ chaos $ trial_deadline_arg $ resume_arg $ repro_dir_arg $ repro_fuel_arg
      $ static_filter_arg $ detector_budget_arg $ mem_budget_arg $ no_degrade_arg
      $ offline_detect_arg $ offline_shards_arg $ proc $ corpus_arg)
  in
  let action target logfile (config : Campaign.config) =
    let program, static = or_fail (resolve_target target) in
    let static = Lazy.force static in
    (* Resuming from the very file we are about to (re)write would
       truncate the journal before it can be read: move it aside. *)
    let resume =
      match (config.resume, logfile) with
      | Some r, Some l when r = l ->
          let prev = r ^ ".prev" in
          (try Sys.rename r prev
           with Sys_error m -> fail ("cannot rotate journal for resume: " ^ m));
          Some prev
      | r, _ -> r
    in
    (match resume with
    | Some path when not (Sys.file_exists path) ->
        fail ~code:4 (Fmt.str "resume journal %S not found" path)
    | _ -> ());
    let log = open_log logfile in
    let static_filter =
      if config.static_filter && static = None then begin
        Fmt.epr "WARNING: --static-filter ignored — %S has no static model@." target;
        false
      end
      else config.static_filter
    in
    let stop = Campaign.stop_switch () in
    let on_signal =
      (* Graceful SIGINT/SIGTERM: in-process workers drain, worker
         processes are killed and reaped (no orphans) before the final
         checkpoint write, the journal is flushed, and a partial report
         is printed; a second ^C kills as usual once the process is
         back out of the campaign. *)
      Sys.Signal_handle (fun _ -> Campaign.request_stop stop)
    in
    let (_ : Sys.signal_behavior) = Sys.signal Sys.sigint on_signal in
    let (_ : Sys.signal_behavior) = Sys.signal Sys.sigterm on_signal in
    let r =
      try
        Campaign.run ~log ~stop
          { config with target; static; static_filter; resume }
          program
      with
      | Rf_resource.Governor.Budget_stop trigger ->
          Rf_campaign.Event_log.close log;
          fail ~code:2
            (Fmt.str "resource budget exhausted in phase 1 (%s) under --no-degrade"
               (Rf_resource.Governor.trigger_to_string trigger))
      | Sys_error m ->
          Rf_campaign.Event_log.close log;
          fail ~code:4 ("cannot load campaign artifact: " ^ m)
      | Unix.Unix_error (e, "mkdir", dir) ->
          Rf_campaign.Event_log.close log;
          fail ~code:4
            (Fmt.str "cannot create artifact directory %s: %s" dir (Unix.error_message e))
    in
    Rf_campaign.Event_log.close log;
    Sys.set_signal Sys.sigint Sys.Signal_default;
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    print_analysis r.Campaign.analysis;
    Fmt.pr "@.%a" Rf_report.Campaign_report.render r.Campaign.stats;
    Fmt.pr "%a" Rf_report.Campaign_report.precision r;
    Fmt.pr "%a" Rf_report.Repro_report.render r.Campaign.repro;
    Fmt.pr "fingerprint: %s@." (Campaign.fingerprint r.Campaign.analysis);
    Fmt.pr "confirmed:   %s@." (Campaign.confirmed_fingerprint r.Campaign.analysis);
    Option.iter (fun path -> Fmt.pr "event log:   %s@." path) logfile;
    Option.iter
      (fun dir ->
        Fmt.pr "corpus:      %s (%d entries)@." dir
          (List.length (Rf_campaign.Corpus.load dir)))
      config.corpus;
    let s = r.Campaign.stats in
    if s.Campaign.s_interrupted then begin
      Option.iter
        (fun path -> Fmt.pr "interrupted — resume with:  --resume %s@." path)
        logfile;
      exit 130
    end;
    if s.Campaign.s_quarantined > 0 || s.Campaign.s_crashes > 0 then exit 3
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Parallel whole-program campaign: schedule all (pair, seed) trials across a \
          domain pool — or, with --workers, across crash-isolated worker \
          processes — with deterministic aggregation, early cutoff, sandboxed \
          trials, supervised workers, resource governance \
          (--detector-budget/--mem-budget), checkpoint/resume and a persistent \
          cross-campaign --corpus. Exit status: 0 clean, 2 when phase 1 \
          exhausted its resource budget under --no-degrade, 3 when trials \
          crashed the harness or pairs were quarantined, 4 when a resume \
          journal or artifact cannot be loaded or an artifact directory \
          cannot be created (checked before phase 1), 130 when interrupted \
          (SIGINT, SIGTERM or --chaos-stop-after).")
    Term.(const action $ target_arg $ log_arg $ config)

(* ------------------------------------------------------------------ *)
(* corpus                                                              *)

let corpus_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("list", `List); ("verify", `Verify) ])) None
      & info [] ~docv:"OP" ~doc:"$(b,list) entries or $(b,verify) integrity.")
  in
  let dir_arg =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"Corpus directory (--corpus of 'campaign').")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable 'corpus list': one flat JSON object per entry \
             (fields kind, key, target, pair, seed, file, crc, seen), no \
             trailing count — diffable by tools without scraping the table.")
  in
  let action op dir json =
    match op with
    | `List when json ->
        List.iter
          (fun e -> print_endline (Rf_campaign.Corpus.to_json e))
          (Rf_campaign.Corpus.load dir)
    | `List ->
        let entries = Rf_campaign.Corpus.load dir in
        if entries = [] then Fmt.pr "corpus %s: empty or missing@." dir
        else begin
          List.iter
            (fun (e : Rf_campaign.Corpus.entry) ->
              Fmt.pr "%-9s %-44s seen %d%s@." e.Rf_campaign.Corpus.e_kind
                e.Rf_campaign.Corpus.e_key e.Rf_campaign.Corpus.e_seen
                (if e.Rf_campaign.Corpus.e_file = "" then ""
                 else "  file " ^ e.Rf_campaign.Corpus.e_file))
            entries;
          let n = List.length entries in
          Fmt.pr "%d entr%s@." n (if n = 1 then "y" else "ies")
        end
    | `Verify -> (
        match Rf_campaign.Corpus.verify ~dir with
        | Ok n -> Fmt.pr "corpus %s: OK (%d entries)@." dir n
        | Error problems ->
            List.iter (fun p -> Fmt.epr "corpus %s: %s@." dir p) problems;
            exit 4)
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Inspect a persistent campaign corpus: 'corpus list DIR' prints the \
          entries (--json for one JSON object per entry), 'corpus verify DIR' \
          checks the index header, every line seal, every artifact's presence \
          and content CRC, and key uniqueness (exit 4 on any violation).")
    Term.(const action $ op_arg $ dir_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_cmd =
  let d = Service.default_config in
  let pos0_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"DIR|status"
          ~doc:
            "Corpus directory to serve, or the literal $(b,status) (followed \
             by the directory) for a one-shot report.")
  in
  let pos1_arg =
    Arg.(
      value & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"Corpus directory (status mode).")
  in
  let cycles_arg =
    Arg.(
      value & opt int d.v_cycles
      & info [ "cycles" ] ~docv:"N"
          ~doc:
            "Exit 0 after $(docv) completed cycles (counted in the ledger, \
             so a restarted service finishes an interrupted cycle rather \
             than starting over); 0 = run until signalled.")
  in
  let period_arg =
    Arg.(
      value & opt float d.v_period
      & info [ "period" ] ~docv:"SECS" ~doc:"Sleep between cycles.")
  in
  let watch_arg =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Poll file targets for mtime changes each cycle; a changed \
             target re-runs immediately (bypassing its token bucket, at \
             most once per cycle).")
  in
  let rate_arg =
    Arg.(
      value & opt float d.v_rate
      & info [ "rate" ] ~docv:"T"
          ~doc:"Token-bucket refill per target per cycle (campaign pacing).")
  in
  let burst_arg =
    Arg.(
      value & opt float d.v_burst
      & info [ "burst" ] ~docv:"T" ~doc:"Token-bucket capacity per target.")
  in
  let retry_max_arg =
    Arg.(
      value & opt int d.v_retry.rp_max_attempts
      & info [ "retry-max" ] ~docv:"N"
          ~doc:"Replay attempts per corpus item per cycle before it fails.")
  in
  let retry_base_arg =
    Arg.(
      value & opt float d.v_retry.rp_base
      & info [ "retry-base" ] ~docv:"SECS"
          ~doc:"First backoff delay; doubles per attempt, jittered, capped.")
  in
  let strikes_arg =
    Arg.(
      value & opt int d.v_retry.rp_strikes
      & info [ "strikes" ] ~docv:"N"
          ~doc:"Failed cycles before an item is quarantined.")
  in
  let targets_arg =
    Arg.(
      value & opt_all string []
      & info [ "target" ] ~docv:"NAME"
          ~doc:
            "Extra campaign target (workload name or RFL file) beyond those \
             the corpus already names; repeatable.")
  in
  let die_reval_arg =
    Arg.(
      value & opt (some int) None
      & info [ "chaos-die-reval" ] ~docv:"N"
          ~doc:
            "Chaos: SIGKILL the service just before persisting the Nth \
             re-validation verdict of this process run.")
  in
  let fail_reval_arg =
    Arg.(
      value & opt (some int) None
      & info [ "chaos-fail-reval" ] ~docv:"N"
          ~doc:
            "Chaos: every replay attempt of the Nth re-validated item \
             fails, driving retry exhaustion and (eventually) quarantine.")
  in
  let torn_index_arg =
    Arg.(
      value & opt (some int) None
      & info [ "chaos-torn-index-cycle" ] ~docv:"N"
          ~doc:"Chaos: tear the corpus index at the start of the Nth cycle.")
  in
  let torn_ledger_arg =
    Arg.(
      value & opt (some int) None
      & info [ "chaos-torn-ledger-cycle" ] ~docv:"N"
          ~doc:"Chaos: tear the ledger at the start of the Nth cycle.")
  in
  let watch_storm_arg =
    Arg.(
      value & opt (some int) None
      & info [ "chaos-watch-storm" ] ~docv:"N"
          ~doc:
            "Chaos: during the Nth cycle every watched target reports \
             changed at once (re-runs must coalesce to one per target).")
  in
  (* The waves' campaign settings.  A count of 0 runs one. *)
  let campaign =
    let c = d.v_campaign in
    let chaos seed kill die_reval fail_reval torn_index torn_ledger watch_storm =
      if
        List.for_all Option.is_none
          [ kill; die_reval; fail_reval; torn_index; torn_ledger; watch_storm ]
      then None
      else
        Some
          {
            (Rf_campaign.Chaos.plan seed) with
            Rf_campaign.Chaos.c_kill_assignment = kill;
            c_die_reval = die_reval;
            c_fail_reval = fail_reval;
            c_torn_index_cycle = torn_index;
            c_torn_ledger_cycle = torn_ledger;
            c_watch_storm = watch_storm;
          }
    in
    let make trials p1 domains workers deadline chaos =
      {
        c with
        Campaign.domains = max 1 domains;
        phase1_seeds = seeds (max 1 p1);
        seeds_per_pair = seeds (max 1 trials);
        proc = worker_fleet workers deadline;
        chaos;
      }
    in
    Term.(
      const make
      $ trials_arg (List.length c.seeds_per_pair)
      $ phase1_seeds_arg (List.length c.phase1_seeds)
      $ domains_arg c.domains $ workers_arg $ worker_deadline_arg
      $ (const chaos $ chaos_seed_arg $ chaos_kill_arg $ die_reval_arg $ fail_reval_arg
        $ torn_index_arg $ torn_ledger_arg $ watch_storm_arg))
  in
  let action pos0 pos1 cycles period watch rate burst retry_max retry_base strikes
      targets logfile v_campaign =
    if pos0 = "status" then begin
      match pos1 with
      | None -> fail "serve status: missing corpus directory"
      | Some dir -> exit (Service.status ~dir)
    end
    else begin
      let dir = pos0 in
      let log = open_log logfile in
      let config =
        {
          Service.v_cycles = max 0 cycles;
          v_period = period;
          v_watch = watch;
          v_rate = rate;
          v_burst = burst;
          v_retry =
            {
              d.v_retry with
              rp_max_attempts = max 1 retry_max;
              rp_base = retry_base;
              rp_strikes = max 1 strikes;
            };
          v_targets = targets;
          v_campaign;
        }
      in
      let stop = Campaign.stop_switch () in
      (* First SIGINT/SIGTERM: drain — finish the in-flight item, persist
         the ledger, exit 0.  Second: exit 130/143 immediately. *)
      let signalled = ref 0 in
      let on_signal signum =
        incr signalled;
        if !signalled > 1 then
          exit (if signum = Sys.sigterm then 143 else 130)
        else Campaign.request_stop stop
      in
      let (_ : Sys.signal_behavior) =
        Sys.signal Sys.sigint (Sys.Signal_handle on_signal)
      in
      let (_ : Sys.signal_behavior) =
        Sys.signal Sys.sigterm (Sys.Signal_handle on_signal)
      in
      let code = Service.serve ~log ~stop config ~resolve:schedule_program ~dir in
      Rf_campaign.Event_log.close log;
      exit code
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived campaign service over a corpus directory: each cycle \
          re-validates every corpus repro by replay (still-racy / fixed / \
          regressed, journaled in a crash-safe ledger), schedules fresh \
          campaign waves over the corpus' targets with token-bucket pacing, \
          and with --watch re-runs changed file targets at once, outside \
          their token bucket.  SIGKILL + restart resumes mid-cycle from the \
          ledger with no lost or duplicated work.  'serve status DIR' prints \
          a one-shot report (exit 1 when the corpus fails strict verify).  \
          Exit status: 0 on clean drain (cycle budget reached or first \
          SIGINT/SIGTERM), 130/143 when a second signal forces exit.")
    Term.(
      const action $ pos0_arg $ pos1_arg $ cycles_arg $ period_arg $ watch_arg
      $ rate_arg $ burst_arg $ retry_max_arg $ retry_base_arg $ strikes_arg
      $ targets_arg $ log_arg $ campaign)

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)

let workload_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Workload name.")
  in
  let action name trials =
    match Rf_workloads.Registry.find name with
    | None ->
        Fmt.epr "unknown workload %S (see 'racefuzzer list')@." name;
        exit 1
    | Some w ->
        Fmt.pr "%a@.@." Rf_workloads.Workload.pp w;
        let a =
          Racefuzzer.Fuzzer.analyze ~phase1_seeds:Campaign.default_config.phase1_seeds
            ~seeds_per_pair:(seeds trials) w.Rf_workloads.Workload.program
        in
        print_analysis a
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Analyze a built-in Table-1 workload analogue.")
    Term.(
      const action $ name_arg
      $ trials_arg (List.length Campaign.default_config.seeds_per_pair))

let list_cmd =
  let action () =
    List.iter
      (fun w -> Fmt.pr "%a@." Rf_workloads.Workload.pp w)
      (Rf_workloads.Registry.all @ Rf_workloads.Registry.litmus)
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in workloads.") Term.(const action $ const ())

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)

let table1_cmd =
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Fewer trials.") in
  let action quick =
    let config =
      if quick then Rf_report.Table1.quick_config else Rf_report.Table1.default_config
    in
    Rf_report.Table1.render Fmt.stdout (Rf_report.Table1.generate ~config ())
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate the paper's Table 1.")
    Term.(const action $ quick_arg)

let figure2_cmd =
  let action trials =
    Rf_report.Figure2_exp.render Fmt.stdout (Rf_report.Figure2_exp.generate ~trials ())
  in
  Cmd.v
    (Cmd.info "figure2" ~doc:"Regenerate the paper's Figure 2 probability series.")
    Term.(const action $ trials_arg 200)

let main_cmd =
  Cmd.group
    (Cmd.info "racefuzzer" ~version:"1.0.0"
       ~doc:"Race-directed random testing of concurrent programs (Sen, PLDI 2008).")
    [
      run_cmd; detect_cmd; fuzz_cmd; replay_cmd; shrink_cmd; deadlock_cmd;
      atomicity_cmd; campaign_cmd; corpus_cmd; serve_cmd;
      workload_cmd; list_cmd; table1_cmd; figure2_cmd;
    ]

(* Hidden worker mode: 'racefuzzer campaign-worker' is exec'd by
   Proc_pool with sealed frames on stdin/stdout.  Dispatched before
   cmdliner so its stdout stays a clean frame stream (no usage text,
   no terminal pager).  Exit codes: 0 on shutdown/EOF, 2 when the init
   frame is corrupt or the target does not resolve. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "campaign-worker" then
    Rf_campaign.Proc_pool.worker_main
      ~resolve:(fun target ->
        match resolve_target target with
        | Ok (program, _) -> Some program
        | Error _ -> None)
      ()

let () = exit (Cmd.eval main_cmd)
