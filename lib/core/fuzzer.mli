(** The two-phase RaceFuzzer driver.

    Phase 1 ({!phase1}) observes random executions with the hybrid
    detector attached and collects potential racing statement pairs.
    Phase 2 ({!fuzz_pair}) re-executes once per (pair, seed) under the
    {!Algo} strategy, classifying a pair as {e real} when a race is
    actually created and {e harmful} when a trial with a created race ends
    in an uncaught exception.  {!analyze} chains both phases.

    Invocations are independent — the paper's "embarrassingly parallel"
    observation.  The campaign orchestrator ([Rf_campaign.Campaign])
    distributes the same trials over domains or worker processes; every
    tier runs {!run_trial} through one trial body and merges results
    through {!trial_of_record}, so its verdicts equal the sequential
    run's. *)

open Rf_util
open Rf_runtime

type program = unit -> unit

(** {1 Resource governance} *)

val governance :
  ?detector_budget:int ->
  ?mem_budget:float ->
  ?wall:float ->
  no_degrade:bool ->
  tripped:bool ->
  unit ->
  Rf_resource.Governor.t option * Engine.deadline option
(** The governor and watchdog of one governed run (a phase-1 pass or one
    phase-2 trial).  A fresh governor exists iff [detector_budget] or
    [mem_budget] is set or [tripped] (a chaos trip is coming), so an
    ungoverned run executes exactly as before governance existed.  The
    watchdog exists iff [wall] (seconds) or [mem_budget] (MB) is set; its
    heap hook is {!Rf_resource.Governor.heap_hook}, which rides the
    ladder down before the run is cancelled. *)

(** {1 Phase 1} *)

(** How phase 1 attaches its detector.  [Inline] has one hybrid detector
    listen to every engine event as it happens.  [Recorded { shards }]
    detects on [shards] re-executions of the phase-1 seeds: a run is a
    pure function of (program, seed), so the seed is the recording.
    Shard [k] of [n] feeds its own detector every synchronization event
    plus the memory events whose location has [Loc.hash mod n = k]; one
    shard is [Inline].  The candidate pair set is identical in both
    modes; with [shards = 1] the race list is byte-identical, report
    order included. *)
type detect_mode = Inline | Recorded of { shards : int }

(** The accounting of the binary recording pass that re-execution
    replaced.  The traced campaign benchmark compiles against these
    names, so they stay; nothing fills them any more. *)
type recording_stats = {
  rec_events : int;
  rec_bytes : int;
  rec_wall : float;
  detect_wall : float;
  rec_shards : int;
}

type phase1_result = {
  potential : Rf_detect.Race.t list;  (** deduplicated by statement pair *)
  p1_outcomes : Outcome.t list;  (** shard 0's executions, in seed order *)
  p1_wall : float;
  p1_degraded : Rf_resource.Governor.snapshot option;
      (** governor state when detection ran degraded; [None] otherwise *)
  p1_recording : recording_stats option;
      (** always [None]; kept for the traced benchmark (see
          {!recording_stats}) *)
  p1_stats : Rf_detect.Detector.stats;
      (** end-of-run accounting: live state entries and memory events,
          summed over shards *)
}

val phase1 :
  ?seeds:int list ->
  ?max_steps:int ->
  ?deadline:Engine.deadline ->
  ?governor:Rf_resource.Governor.t ->
  ?detect:detect_mode ->
  ?on_pair:(Site.Pair.t -> unit) ->
  program ->
  phase1_result
(** Default: one execution (seed 0), like the paper; more seeds widen the
    candidate set.  [governor] meters the hybrid detector's state budget
    (degradation ladder; see {!Rf_resource.Governor}); [deadline] attaches
    the engine watchdog, including its heap watermark.  With a no-degrade
    governor, {!Rf_resource.Governor.Budget_stop} escapes: phase 1 has no
    sandbox, so an unshed budget overrun is the caller's failure.

    [detect] (default [Inline]) sets the shard count.  With more than one
    shard, a governed run ([governor] or [deadline] given) runs its
    shards one after another, sharing the governor, so the combined
    budget stays deterministic.  An ungoverned run takes
    {!Rf_util.Site.with_priority}, then runs shard 0 on the calling domain
    and every other shard on its own domain, so site ids are the ones a
    single execution would intern.  Shards' races are merged:
    deduplicated by statement pair (the lowest shard's witness stays) and
    sorted by {!Site.Pair.compare}; their stats are summed, since
    locations partition across shards.

    [on_pair] is told each candidate statement pair once, and the pairs
    told are exactly {!potential_pairs} of the result.  With one shard it
    is told on the event that first reports the pair, while later
    executions are still to run; with more it is told the merged pairs
    after every shard has finished. *)

val potential_pairs : phase1_result -> Site.Pair.Set.t

(** {1 Phase 2} *)

type trial = {
  t_seed : int;
  t_outcome : Outcome.t;
  t_report : Algo.report;
  t_degraded : Rf_resource.Governor.snapshot option;
      (** governor state when the trial ran degraded; [None] otherwise *)
}

type pair_result = {
  pr_pair : Site.Pair.t;
  trials : trial list;
  race_trials : int;  (** trials that created a real race *)
  error_trials : int;  (** racing trials with an uncaught exception *)
  deadlock_trials : int;
  probability : float;  (** race_trials / trials — Table 1's last column *)
  race_seed : int option;  (** a seed reproducing the race, for replay *)
  error_seed : int option;
  pr_wall : float;
}

val is_real : pair_result -> bool
val is_harmful : pair_result -> bool

(** {2 The shared trial interface}

    [run_trial] and [aggregate_trials] are the two primitives every phase-2
    driver is built from: {!fuzz_pair} and the campaign orchestrator
    ([Rf_campaign.Campaign]) execute the same single-trial function and
    fold trial lists with the same aggregation, which is what makes their
    results comparable bit-for-bit. *)

(** Sandboxed result of one phase-2 execution.  Program misbehaviour
    (exceptions, deadlocks, timeouts) is data inside a [Completed] trial's
    {!Rf_runtime.Outcome.t}; [Harness_crash] is an exception escaping the
    {e engine} (strategy or listener bug, injected chaos) with its raw
    backtrace; [Budget_exhausted] is a watchdog cancellation
    ({!Rf_runtime.Engine.deadline}). *)
type trial_result =
  | Completed of trial
  | Harness_crash of exn * string
  | Budget_exhausted of {
      bx_seed : int;
      bx_reason : Outcome.cancel_reason;
      bx_steps : int;
      bx_wall : float;
    }

val run_trial :
  ?postpone_timeout:int option ->
  ?deadline:Engine.deadline ->
  ?governor:Rf_resource.Governor.t ->
  ?listeners:(Rf_events.Event.t -> unit) list ->
  ?inject:(unit -> unit) ->
  max_steps:int ->
  program:program ->
  Site.Pair.t ->
  int ->
  trial_result
(** One phase-2 execution of [program] against the candidate pair from the
    given seed, run inside the trial sandbox: no exception escapes.
    Deterministic: the same (pair, seed, max_steps) yields the same trial
    on any domain, because the engine resets its domain-local counters per
    run.  [inject] runs inside the sandbox just before the engine starts
    (the chaos-injection hook); [deadline] attaches a watchdog.

    [governor] is the trial's resource governor: if it degraded by the
    time the engine returns, the snapshot lands in [t_degraded]; if it
    raises {!Rf_resource.Governor.Budget_stop} (no-degrade mode), the
    sandbox converts it to [Budget_exhausted] with reason
    [Detector_budget] or [Heap_watermark].  [listeners] attach extra
    event observers (e.g. a governed detector) to the trial's engine
    run — phase 2 normally runs detector-free. *)

val run_trial_exn :
  max_steps:int ->
  program:program ->
  Site.Pair.t ->
  int ->
  trial
(** Unsandboxed [run_trial]: re-raises a harness crash.  The historical
    contract of the sequential drivers ({!fuzz_pair} et al.). *)

exception Journal_replayed
(** Placeholder exception inside trials rebuilt by {!trial_of_record}. *)

val trial_of_record :
  degraded:Rf_resource.Governor.snapshot option ->
  pair:Site.Pair.t ->
  seed:int ->
  race:bool ->
  exns:int ->
  deadlock:bool ->
  steps:int ->
  switches:int ->
  wall:float ->
  trial
(** Rebuild a trial from its journal-shaped record.  This is how every
    campaign trial enters aggregation: executed on a domain, returned by
    a worker process, or replayed from a resume journal.  The synthetic
    trial carries exactly the fields {!aggregate_trials}, the campaign
    fingerprint and repro witness selection read, so all three sources
    aggregate bit-identically. *)

val aggregate_trials : pair:Site.Pair.t -> wall:float -> trial list -> pair_result
(** Fold trials (in seed order) into a {!pair_result}.  Pure: the result
    depends only on the trial list, never on who ran the trials or when. *)

val fuzz_pair :
  ?seeds:int list ->
  ?max_steps:int ->
  program:program ->
  Site.Pair.t ->
  pair_result
(** Default 100 seeds, like the paper's probability estimates.  Engine
    switch points are restricted to sync operations plus the pair (§4). *)

val replay :
  ?postpone_timeout:int option ->
  ?record_trace:bool ->
  ?max_steps:int ->
  seed:int ->
  program:program ->
  Site.Pair.t ->
  Outcome.t * Algo.report
(** One phase-2 execution from its seed: the paper's record-free replay. *)

(** {1 Schedule record / replay / shrink}

    Integration of the {!Rf_replay} combinators with the phase-2
    building blocks.  A schedule file is self-contained: replay
    rebuilds the engine configuration (seed, [Sync_and] switch policy,
    step budget) from its metadata. *)

val record_trial :
  ?target:string ->
  ?max_steps:int ->
  program:program ->
  Site.Pair.t ->
  int ->
  trial * Rf_replay.Schedule.t
(** One phase-2 execution with the {!Algo} strategy wrapped in a
    {!Rf_replay.Recorder}: the trial plus its recorded schedule.
    Deterministic, and outcome-identical to {!run_trial_exn} on the
    same (pair, seed, max_steps). *)

val replay_schedule :
  ?mode:Rf_replay.Replayer.mode ->
  program:program ->
  Rf_replay.Schedule.t ->
  Outcome.t * Rf_replay.Replayer.status
(** Re-execute a recorded schedule.  After the schedule is exhausted
    (or after a divergence in [Exact] mode, the default) a {e neutral}
    deterministic scheduler — non-preemptive run-until-block, never the
    steering {!Algo} strategy — finishes the run; that is what makes a
    minimized prefix meaningful rather than "the seed reproduces
    anyway".  The replay
    {e reproduces} when the outcome's
    {!Rf_replay.Schedule.error_fingerprint} equals the schedule's and
    the status reports no divergence. *)

val schedule_oracle :
  program:program -> unit -> Rf_replay.Schedule.t -> Rf_replay.Schedule.t option
(** The shrinking oracle over [program]: leniently replay a candidate
    (neutral fallback, as in {!replay_schedule}), re-record, and return
    the exact re-recording iff the run reproduces the candidate's error
    fingerprint. *)

val minimize_schedule :
  ?fuel:int ->
  program:program ->
  Rf_replay.Schedule.t ->
  (Rf_replay.Schedule.t * Rf_replay.Shrinker.stats) option
(** {!Rf_replay.Shrinker.minimize} against {!schedule_oracle}. *)

(** {1 Static pre-filtering}

    Hooks for the {!Rf_static.Static} pre-filter: candidate pairs the
    analysis proves [Impossible] are skipped before any phase-2 trial, and
    surviving pairs are fuzzed [Likely]-first.  Soundness (an [Impossible]
    verdict never hides a phase-2-confirmable race) is established by the
    differential QCheck harness in [test/test_static.ml]. *)

val verdict_rank : Rf_static.Static.verdict -> int
(** [Likely] = 0, [Unknown] = 1, [Impossible] = 2. *)

val order_pairs :
  static:Rf_static.Static.t -> Site.Pair.t list -> Site.Pair.t list
(** Stable sort by {!verdict_rank}: Likely-first wave scheduling. *)

val partition_frontier :
  static:Rf_static.Static.t ->
  Site.Pair.t list ->
  Site.Pair.t list * (Site.Pair.t * Rf_static.Static.verdict) list
(** [(surviving, filtered)]: only [Impossible] pairs are filtered. *)

(** {1 Whole-program analysis} *)

type analysis = {
  a_phase1 : phase1_result;
  results : pair_result list;
  real_pairs : Site.Pair.Set.t;
  error_pairs : Site.Pair.Set.t;
  deadlock_pairs : Site.Pair.Set.t;
  a_filtered : (Site.Pair.t * Rf_static.Static.verdict) list;
      (** phase-1 candidates refuted statically and never fuzzed *)
}

val restrict_analysis : keep:(Site.Pair.t -> bool) -> analysis -> analysis
(** Drop per-pair results (and their membership in the verdict sets) for
    pairs [keep] rejects, leaving phase 1 untouched: the unfiltered run
    projected onto a surviving-pair set. *)

val analyze :
  ?phase1_seeds:int list ->
  ?seeds_per_pair:int list ->
  ?max_steps:int ->
  ?detector_budget:int ->
  ?mem_budget:float ->
  ?no_degrade:bool ->
  ?static:Rf_static.Static.t ->
  ?static_filter:bool ->
  program ->
  analysis
(** [detector_budget] caps phase-1 detector-state entries; [mem_budget]
    (MB) arms the heap-watermark backstop.  Either makes phase 1 run
    under a {!Rf_resource.Governor.t} — over budget, it degrades down
    the ladder and completes with [p1_degraded] set.  With
    [~no_degrade:true] the first trip raises
    {!Rf_resource.Governor.Budget_stop} instead.  Phase-2 trials carry
    no detector and run ungoverned here. *)

(** {1 Baselines} *)

type baseline_result = {
  b_trials : int;
  b_error_trials : int;
  b_exception_sites : Site.Set.t;
  b_deadlock_trials : int;
}

val baseline :
  ?seeds:int list ->
  ?policy:Engine.switch_policy ->
  ?max_steps:int ->
  make_strategy:(unit -> Strategy.t) ->
  program ->
  baseline_result
(** Exception behaviour under an undirected scheduler (simple random,
    default, RAPOS): Table 1's comparison column. *)
