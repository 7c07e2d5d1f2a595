(** The two phases of RaceFuzzer.

    Phase 1 executes the program under an unconstrained random scheduler
    with the hybrid detector attached and collects potential racing
    statement pairs.  Phase 2 re-executes the program once per (pair, seed)
    under the {!Algo} strategy, classifying each pair as real when a race
    is actually created, and as harmful when the created race leads to an
    uncaught exception or deadlock.  Different invocations are independent
    (the paper's "embarrassingly parallel" remark), so everything is
    driven by explicit seed lists; the campaign orchestrator
    ([Rf_campaign.Campaign]) chains both phases. *)

open Rf_util
open Rf_runtime
open Rf_resource

type program = unit -> unit

(* ------------------------------------------------------------------ *)
(* Resource governance                                                 *)

(* One governed run's governor and watchdog.  A governor exists only
   when some budget (or an injected trip) is in play, so ungoverned runs
   execute exactly as they did before governance existed.  The watchdog
   exists when a wall or heap bound does; its heap hook rides the
   governor's ladder down before it cancels anything. *)
let governance ?detector_budget ?mem_budget ?wall ~no_degrade ~tripped () =
  let governor =
    if detector_budget = None && mem_budget = None && not tripped then None
    else Some (Governor.create ?max_entries:detector_budget ~no_degrade ())
  in
  let deadline =
    match (wall, mem_budget) with
    | None, None -> None
    | wall, heap_mb ->
        let heap_hook = Option.map Governor.heap_hook governor in
        Some (Engine.deadline ?wall ?heap_mb ?heap_hook ())
  in
  (governor, deadline)

(* ------------------------------------------------------------------ *)
(* Phase 1                                                             *)

(** How phase 1 attaches its detector to the executions it observes.

    [Inline] is the classic configuration: one hybrid detector listens to
    every engine event as it happens.  [Recorded { shards }] detects on
    [shards] re-executions of the phase-1 seeds: an execution is a pure
    function of (program, seed), so the seed is the recording.  Shard [k]
    feeds its own detector every synchronization event plus the memory
    events whose location hashes to [k].  The candidate pair set is
    identical either way; with one shard the race list is byte-identical,
    report order included. *)
type detect_mode = Inline | Recorded of { shards : int }

(* [recording_stats] and [p1_recording] describe the binary recording
   pass that detection by re-execution replaced.  The traced campaign
   benchmark (campaign_bench/traced.ml) compiles against these names, so
   they stay; [p1_recording] is always [None]. *)
type recording_stats = {
  rec_events : int;
  rec_bytes : int;
  rec_wall : float;
  detect_wall : float;
  rec_shards : int;
}

type phase1_result = {
  potential : Rf_detect.Race.t list;  (** deduplicated by statement pair *)
  p1_outcomes : Outcome.t list;
  p1_wall : float;
  p1_degraded : Governor.snapshot option;
      (** the governor's final state when it tripped during detection *)
  p1_recording : recording_stats option;  (** always [None] *)
  p1_stats : Rf_detect.Detector.stats;
      (** end-of-run accounting: live state entries and memory events *)
}

(* A governor's final state, when it ever tripped. *)
let degraded_snapshot = function
  | Some g when Governor.degraded g -> Some (Governor.snapshot g)
  | _ -> None

let potential_pairs r =
  List.fold_left
    (fun acc (race : Rf_detect.Race.t) -> Site.Pair.Set.add race.Rf_detect.Race.pair acc)
    Site.Pair.Set.empty r.potential

(* Dedup by statement pair, keeping the lowest-shard witness: shard
   assignment is a pure function of the location, so the surviving
   witness — hence the merged list — is independent of evaluation
   order. *)
let merge per_shard =
  let seen = ref Site.Pair.Set.empty in
  List.concat per_shard
  |> List.filter (fun (r : Rf_detect.Race.t) ->
         if Site.Pair.Set.mem r.Rf_detect.Race.pair !seen then false
         else begin
           seen := Site.Pair.Set.add r.Rf_detect.Race.pair !seen;
           true
         end)
  |> List.sort (fun (a : Rf_detect.Race.t) (b : Rf_detect.Race.t) ->
         Site.Pair.compare a.Rf_detect.Race.pair b.Rf_detect.Race.pair)

(* Shard stats aggregate exactly: locations partition across shards, so
   entries and memory events sum to the one-shard totals. *)
let merge_stats per_shard =
  List.fold_left
    (fun acc (s : Rf_detect.Detector.stats) ->
      {
        Rf_detect.Detector.st_entries =
          acc.Rf_detect.Detector.st_entries + s.Rf_detect.Detector.st_entries;
        st_mem_events =
          acc.Rf_detect.Detector.st_mem_events + s.Rf_detect.Detector.st_mem_events;
      })
    { Rf_detect.Detector.st_entries = 0; st_mem_events = 0 }
    per_shard

(** Run hybrid race detection over [seeds] executions (the paper uses one;
    more executions can only widen the candidate set).  [governor] meters
    the detector's state; a [Budget_stop] (no-degrade governor) escapes to
    the caller — phase 1 has no sandbox, running out of budget there is a
    campaign-level failure. *)
let phase1 ?(seeds = [ 0 ]) ?(max_steps = Engine.default_config.max_steps)
    ?deadline ?governor ?(detect = Inline) ?on_pair (program : program) : phase1_result =
  let t0 = Unix.gettimeofday () in
  let shards = match detect with Inline -> 1 | Recorded { shards } -> max 1 shards in
  (* Shard [k]: every seed's execution, feeding one detector all sync
     events and the memory events of the locations it owns. *)
  let run_shard ?on_pair ?deadline k =
    let d = Rf_detect.Detector.hybrid ?governor ?on_pair () in
    let feed =
      if shards = 1 then Rf_detect.Detector.feed d
      else function
        | Rf_events.Event.Mem { loc; _ } when Loc.hash loc mod shards <> k -> ()
        | ev -> Rf_detect.Detector.feed d ev
    in
    let outcomes =
      List.map
        (fun seed ->
          Engine.run
            ~config:{ Engine.default_config with seed; max_steps; deadline }
            ~listeners:[ feed ] ~strategy:(Strategy.random ()) program)
        seeds
    in
    (outcomes, Rf_detect.Detector.races d, Rf_detect.Detector.stats d)
  in
  let outcomes, potential, stats =
    if shards = 1 then run_shard ?on_pair ?deadline 0
    else begin
      let per_shard =
        if governor <> None || deadline <> None then
          (* Governed: one shard after another, sharing the governor, so
             the combined budget trips deterministically. *)
          List.init shards (run_shard ?deadline)
        else begin
          (* Priority first, so no shard domain interns a site before
             shard 0 and site ids stay those of one execution.  Shard 0
             runs on the calling domain.  Priority ends with it: every
             shard runs the same executions, so the others then intern
             nothing new, and if shard 0 raised they are not left waiting
             for a site it never reached.  All are joined before any
             exception escapes. *)
          let settle f = match f () with r -> Ok r | exception e -> Error (e, Printexc.get_raw_backtrace ()) in
          let others, first =
            Site.with_priority (fun () ->
                let others =
                  List.init (shards - 1) (fun i -> Domain.spawn (fun () -> run_shard (i + 1)))
                in
                (others, settle (fun () -> run_shard 0)))
          in
          first :: List.map (fun d -> settle (fun () -> Domain.join d)) others
          |> List.map (function Ok r -> r | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
        end
      in
      let potential = merge (List.map (fun (_, races, _) -> races) per_shard) in
      Option.iter
        (fun tell ->
          List.iter (fun (r : Rf_detect.Race.t) -> tell r.Rf_detect.Race.pair) potential)
        on_pair;
      let outcomes = match per_shard with (o, _, _) :: _ -> o | [] -> [] in
      (outcomes, potential, merge_stats (List.map (fun (_, _, st) -> st) per_shard))
    end
  in
  {
    potential;
    p1_outcomes = outcomes;
    p1_wall = Unix.gettimeofday () -. t0;
    p1_degraded = degraded_snapshot governor;
    p1_recording = None;
    p1_stats = stats;
  }

(* ------------------------------------------------------------------ *)
(* Phase 2                                                             *)

type trial = {
  t_seed : int;
  t_outcome : Outcome.t;
  t_report : Algo.report;
  t_degraded : Governor.snapshot option;
      (** filled when a governor degraded detector state during the trial *)
}

type pair_result = {
  pr_pair : Site.Pair.t;
  trials : trial list;
  race_trials : int;  (** trials that created a real race *)
  error_trials : int;  (** trials with an uncaught exception *)
  deadlock_trials : int;
  probability : float;  (** race_trials / trials — Table 1's last column *)
  race_seed : int option;  (** a seed reproducing the race, for replay *)
  error_seed : int option;
  pr_wall : float;
}

let is_real r = r.race_trials > 0
let is_harmful r = r.error_trials > 0

(* ------------------------------------------------------------------ *)
(* The sandboxed trial boundary.

   The programs phase 2 drives are *expected* to misbehave — that is the
   point of the tool — so anything the engine tracks (program exceptions,
   deadlocks, step-bound timeouts) comes back inside [Outcome.t] as a
   [Completed] trial.  [trial_result] classifies the two failure modes
   that are NOT program behaviour: an exception escaping the engine
   itself (strategy bug, listener bug, injected chaos) becomes
   [Harness_crash] instead of tearing down the caller, and a watchdog
   cancellation ([Engine.deadline]) becomes [Budget_exhausted]. *)

type trial_result =
  | Completed of trial
  | Harness_crash of exn * string  (* raw backtrace at the catch point *)
  | Budget_exhausted of {
      bx_seed : int;
      bx_reason : Outcome.cancel_reason;
      bx_steps : int;
      bx_wall : float;
    }

let run_trial ?postpone_timeout ?deadline ?governor ?(listeners = [])
    ?(inject = ignore) ~max_steps ~(program : program) (pair : Site.Pair.t)
    seed : trial_result =
  let watch =
    Site.Set.add (Site.Pair.fst pair) (Site.Set.singleton (Site.Pair.snd pair))
  in
  let report = Algo.fresh_report () in
  let strategy = Algo.strategy ?postpone_timeout ~pair ~report () in
  match
    inject ();
    Engine.run
      ~config:
        {
          Engine.default_config with
          seed;
          policy = Engine.Sync_and watch;
          max_steps;
          deadline;
        }
      ~listeners ~strategy program
  with
  | outcome -> (
      match outcome.Outcome.cancelled with
      | Some reason ->
          Budget_exhausted
            {
              bx_seed = seed;
              bx_reason = reason;
              bx_steps = outcome.Outcome.steps;
              bx_wall = outcome.Outcome.wall_time;
            }
      | None ->
          Completed
            {
              t_seed = seed;
              t_outcome = outcome;
              t_report = report;
              t_degraded = degraded_snapshot governor;
            })
  | exception Governor.Budget_stop trigger ->
      (* A no-degrade governor refused to shed state: the trial budget is
         spent, same contract as a watchdog cancellation. *)
      Budget_exhausted
        {
          bx_seed = seed;
          bx_reason =
            (match trigger with
            | Governor.Heap_watermark -> Outcome.Heap_watermark
            | Governor.Entry_budget | Governor.Injected ->
                Outcome.Detector_budget);
          bx_steps = 0;
          bx_wall = 0.0;
        }
  | exception e -> Harness_crash (e, Printexc.get_backtrace ())

let run_trial_exn ~max_steps ~(program : program) (pair : Site.Pair.t) seed : trial =
  match run_trial ~max_steps ~program pair seed with
  | Completed t -> t
  | Harness_crash (e, _) -> raise e
  | Budget_exhausted _ -> assert false (* no deadline was passed *)

(* Reconstruct a trial from its journal record ([Rf_campaign.Event_log]
   Trial_finished) without re-executing: the synthetic outcome and report
   carry exactly the fields deterministic aggregation and fingerprinting
   read — seed, race flag, exception count, deadlock flag, steps,
   switches — never engine internals. *)

exception Journal_replayed

let trial_of_record ~degraded ~(pair : Site.Pair.t) ~seed ~race ~exns
    ~deadlock ~steps ~switches ~wall : trial =
  let outcome =
    {
      Outcome.steps;
      switches;
      threads_spawned = 0;
      exceptions =
        List.init exns (fun i ->
            {
              Outcome.xtid = i;
              xthread = "journal";
              exn_ = Journal_replayed;
              raised_at = None;
            });
      deadlocked = (if deadlock then [ 0 ] else []);
      blocked_at = [];
      timed_out = false;
      cancelled = None;
      trace = None;
      wall_time = wall;
    }
  in
  let report = Algo.fresh_report () in
  if race then
    report.Algo.hits <-
      [
        {
          Algo.hit_pair = pair;
          hit_sites = (Site.Pair.fst pair, Site.Pair.snd pair);
          hit_loc = Loc.global "journal-replay";
          hit_arriving = -1;
          hit_postponed = [];
          hit_step = 0;
          resolved_arriving = false;
        };
      ];
  { t_seed = seed; t_outcome = outcome; t_report = report; t_degraded = degraded }

let aggregate_trials ~pair ~wall trials : pair_result =
  let race_trials = List.filter (fun t -> Algo.race_created t.t_report) trials in
  let error_trials =
    (* an error is attributed to the race only if the race was created in
       that run (the exception must be a consequence we can tie to it) *)
    List.filter
      (fun t -> Algo.race_created t.t_report && Outcome.has_exception t.t_outcome)
      trials
  in
  let deadlock_trials = List.filter (fun t -> Outcome.deadlocked t.t_outcome) trials in
  {
    pr_pair = pair;
    trials;
    race_trials = List.length race_trials;
    error_trials = List.length error_trials;
    deadlock_trials = List.length deadlock_trials;
    probability =
      (if trials = [] then 0.0
       else float_of_int (List.length race_trials) /. float_of_int (List.length trials));
    race_seed = (match race_trials with [] -> None | t :: _ -> Some t.t_seed);
    error_seed = (match error_trials with [] -> None | t :: _ -> Some t.t_seed);
    pr_wall = wall;
  }

(** Fuzz one candidate pair across [seeds].  Engine switch points are
    restricted to synchronization operations plus the pair's two sites —
    the paper's low-overhead configuration (§4). *)
let fuzz_pair ?(seeds = List.init 100 Fun.id)
    ?(max_steps = Engine.default_config.max_steps) ~(program : program)
    (pair : Site.Pair.t) : pair_result =
  let t0 = Unix.gettimeofday () in
  let trials = List.map (run_trial_exn ~max_steps ~program pair) seeds in
  aggregate_trials ~pair ~wall:(Unix.gettimeofday () -. t0) trials

(** Re-run a single phase-2 execution from its seed: the paper's replay
    mechanism.  Returns the outcome and the race report. *)
let replay ?postpone_timeout ?(record_trace = false)
    ?(max_steps = Engine.default_config.max_steps) ~seed ~(program : program)
    (pair : Site.Pair.t) =
  let watch =
    Site.Set.add (Site.Pair.fst pair) (Site.Set.singleton (Site.Pair.snd pair))
  in
  let report = Algo.fresh_report () in
  let strategy = Algo.strategy ?postpone_timeout ~pair ~report () in
  let outcome =
    Engine.run
      ~config:
        {
          Engine.default_config with
          seed;
          policy = Engine.Sync_and watch;
          record_trace;
          max_steps;
        }
      ~strategy program
  in
  (outcome, report)

(* ------------------------------------------------------------------ *)
(* Schedule record / replay / shrink.

   The strategies below compose the Rf_replay combinators with the
   phase-2 building blocks: a recorded trial is run_trial with the
   strategy wrapped in a Recorder; replay rebuilds the engine
   configuration (seed, Sync_and policy, step budget) from the
   schedule's own metadata so a *.sched.json file is self-contained;
   and the shrinker's oracle is "replay leniently, re-record, compare
   error fingerprints". *)

module Schedule = Rf_replay.Schedule
module Recorder = Rf_replay.Recorder
module Replayer = Rf_replay.Replayer
module Shrinker = Rf_replay.Shrinker

let pair_watch pair =
  Site.Set.add (Site.Pair.fst pair) (Site.Set.singleton (Site.Pair.snd pair))

let pair_policy = function
  | Some pair -> Engine.Sync_and (pair_watch pair)
  | None -> Engine.Every_op

(* The deterministic fallback that finishes a run once a schedule is
   exhausted (or, in Exact mode, after a divergence).  Deliberately a
   *neutral* scheduler, not the Algo strategy the recording was made
   under: the Algo strategy re-creates the race from the seed alone,
   which would let the shrinker discard the entire schedule as "already
   reproducing" — the dejafu lesson is that a minimized prefix is only
   meaningful against a scheduler that does not steer.  Non-preemptive
   run-until-block is the least-steering completion: the prefix must
   contain every preemption the failure needs, and nothing else.  It is
   deterministic and draws no randomness, so the engine-internal PRNG
   stream stays exactly where the last replayed step restored it. *)
let replay_fallback () = Strategy.run_until_block ()

let record_trial ?(target = "")
    ?(max_steps = Engine.default_config.max_steps) ~(program : program)
    (pair : Site.Pair.t) seed : trial * Schedule.t =
  let report = Algo.fresh_report () in
  let strategy, recorder =
    Recorder.wrap (Algo.strategy ~pair ~report ())
  in
  let outcome =
    Engine.run
      ~config:
        {
          Engine.default_config with
          seed;
          policy = pair_policy (Some pair);
          max_steps;
        }
      ~strategy program
  in
  ( { t_seed = seed; t_outcome = outcome; t_report = report; t_degraded = None },
    Recorder.schedule ~target ~pair ~seed ~max_steps ~outcome recorder )

let replay_schedule ?mode ~(program : program) (sched : Schedule.t) :
    Outcome.t * Replayer.status =
  let strategy, status =
    Replayer.strategy ?mode sched ~fallback:(replay_fallback ())
  in
  let outcome =
    Engine.run
      ~config:
        {
          Engine.default_config with
          seed = sched.Schedule.meta.Schedule.m_seed;
          policy = pair_policy (Schedule.pair sched);
          max_steps = sched.Schedule.meta.Schedule.m_max_steps;
        }
      ~strategy program
  in
  (outcome, status)

let schedule_oracle ~(program : program) () : Schedule.t -> Schedule.t option =
 fun cand ->
  match cand.Schedule.meta.Schedule.m_error with
  | None -> None (* nothing to reproduce *)
  | Some want ->
      let replaying, _status =
        Replayer.strategy ~mode:Replayer.Lenient cand
          ~fallback:(replay_fallback ())
      in
      let strategy, recorder = Recorder.wrap replaying in
      let meta = cand.Schedule.meta in
      let outcome =
        Engine.run
          ~config:
            {
              Engine.default_config with
              seed = meta.Schedule.m_seed;
              policy = pair_policy (Schedule.pair cand);
              max_steps = meta.Schedule.m_max_steps;
            }
          ~strategy program
      in
      if Schedule.error_fingerprint outcome = Some want then
        Some
          (Recorder.schedule ~target:meta.Schedule.m_target
             ?pair:(Schedule.pair cand) ~seed:meta.Schedule.m_seed
             ~max_steps:meta.Schedule.m_max_steps ~outcome recorder)
      else None

let minimize_schedule ?fuel ~(program : program) (sched : Schedule.t) :
    (Schedule.t * Shrinker.stats) option =
  Shrinker.minimize ?fuel ~oracle:(schedule_oracle ~program ()) sched

(* ------------------------------------------------------------------ *)
(* Static pre-filtering of the candidate frontier                      *)

(** Likely pairs first, then Unknown, then Impossible: the campaign fuzzes
    the pairs the static analysis believes in before spending trials on
    the rest.  Stable within a rank (pairs keep their canonical order), so
    the wave schedule is a pure function of the frontier + the summary. *)
let verdict_rank = function
  | Rf_static.Static.Likely -> 0
  | Rf_static.Static.Unknown _ -> 1
  | Rf_static.Static.Impossible _ -> 2

let order_pairs ~static pairs =
  List.stable_sort
    (fun a b ->
      Int.compare
        (verdict_rank (Rf_static.Static.classify static a))
        (verdict_rank (Rf_static.Static.classify static b)))
    pairs

(** Split a frontier into (surviving, filtered-with-verdicts): only
    [Impossible] pairs are filtered — the analysis is sound in exactly
    that direction, so skipping them loses no confirmable race. *)
let partition_frontier ~static pairs =
  let filtered, surviving =
    List.partition_map
      (fun pair ->
        match Rf_static.Static.classify static pair with
        | Rf_static.Static.Impossible _ as v -> Either.Left (pair, v)
        | _ -> Either.Right pair)
      pairs
  in
  (surviving, filtered)

(* ------------------------------------------------------------------ *)
(* Whole-program analysis                                              *)

type analysis = {
  a_phase1 : phase1_result;
  results : pair_result list;
  real_pairs : Site.Pair.Set.t;
  error_pairs : Site.Pair.Set.t;
  deadlock_pairs : Site.Pair.Set.t;
  a_filtered : (Site.Pair.t * Rf_static.Static.verdict) list;
      (** phase-1 candidates refuted statically and never fuzzed *)
}

(** Project an unfiltered analysis onto the pairs [keep] accepts, as if the
    others had been filtered before phase 2: used by the integration tests
    to state that filtering only ever *removes* per-pair records. *)
let restrict_analysis ~keep (a : analysis) : analysis =
  let results = List.filter (fun r -> keep r.pr_pair) a.results in
  let restrict = Site.Pair.Set.filter keep in
  {
    a with
    results;
    real_pairs = restrict a.real_pairs;
    error_pairs = restrict a.error_pairs;
    deadlock_pairs = restrict a.deadlock_pairs;
  }

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)

(** Count exception behaviour of a program under an arbitrary baseline
    scheduler (simple random, default, ...): returns the number of trials
    that raised, and the set of distinct exception sites observed. *)
type baseline_result = {
  b_trials : int;
  b_error_trials : int;
  b_exception_sites : Site.Set.t;
  b_deadlock_trials : int;
}

let baseline ?(seeds = List.init 100 Fun.id) ?(policy = Engine.Every_op)
    ?max_steps ~(make_strategy : unit -> Strategy.t) (program : program) :
    baseline_result =
  let outcomes =
    List.map
      (fun seed ->
        Engine.run
          ~config:
            {
              Engine.default_config with
              seed;
              policy;
              max_steps =
                (match max_steps with
                | Some m -> m
                | None -> Engine.default_config.max_steps);
            }
          ~strategy:(make_strategy ()) program)
      seeds
  in
  {
    b_trials = List.length outcomes;
    b_error_trials =
      List.length (List.filter Outcome.has_exception outcomes);
    b_exception_sites =
      List.fold_left
        (fun acc o ->
          List.fold_left
            (fun acc s -> Site.Set.add s acc)
            acc (Outcome.exn_sites o))
        Site.Set.empty outcomes;
    b_deadlock_trials = List.length (List.filter Outcome.deadlocked outcomes);
  }
