(** The cooperative scheduling engine.

    Runs a model program (a [unit -> unit] main that may {!Api.fork}
    further threads) with every shared access and synchronization operation
    under scheduler control, serialized exactly like the paper's execution
    model: one thread executes between yield points at a time, the
    scheduler picks among *enabled* threads (§2.1), and termination with
    live-but-blocked threads is reported as a real deadlock (Algorithm 1,
    lines 30–32).

    Replay: all nondeterminism draws from one PRNG seeded by
    [config.seed], so re-running with a seed reproduces the execution
    bit-for-bit (checked against recorded traces in the test suite). *)

open Rf_util
open Rf_events

(** Where the strategy is consulted.  [Sync_and sites] restricts switch
    points to synchronization operations plus memory accesses whose static
    site is in [sites] — the paper's low-overhead configuration (§4):
    RaceFuzzer passes its racing pair, detectors needing every access use
    [Every_op]. *)
type switch_policy = Every_op | Sync_and of Site.Set.t

(** A per-run watchdog, consulted at every switch point.  [dl_steps] caps
    the number of executed operations (exact to switch granularity);
    [dl_wall] caps wall-clock seconds, polled every [dl_poll] steps —
    including once {e before} the first step, so a run whose budget is
    already spent is cancelled without executing anything.  Hitting either
    bound stops the run cleanly with [Outcome.cancelled = Some reason]
    instead of spinning on to [max_steps].  Time the run spent waiting
    for another domain's phase 1 to intern a site
    ({!Rf_util.Site.with_priority}) does not count toward [dl_wall].
    Wall deadlines trade the
    engine's bit-exact replayability for liveness: use them to sandbox
    runaway or stalled trials, not in determinism-sensitive runs.

    [dl_heap_mb] caps the process major-heap size ([Gc.quick_stat],
    polled at the same [dl_poll] cadence as the wall clock).  The heap
    is shared across domains, so like the wall clock this bound is a
    non-deterministic backstop, not a per-trial meter.  When the
    watermark trips, [dl_heap_hook] (if any) is consulted first: a hook
    returning [true] has absorbed the overage (typically by stepping a
    resource governor down its degradation ladder) and the run
    continues; otherwise the run cancels with [Heap_watermark]. *)
type deadline = {
  dl_wall : float option;
  dl_steps : int option;
  dl_heap_mb : float option;
  dl_heap_hook : (unit -> bool) option;
  dl_poll : int;
}

val deadline :
  ?wall:float ->
  ?steps:int ->
  ?heap_mb:float ->
  ?heap_hook:(unit -> bool) ->
  ?poll:int ->
  unit ->
  deadline
(** [poll] defaults to 2048 steps per wall-clock/heap check. *)

type config = {
  seed : int;
  policy : switch_policy;
  record_trace : bool;
  max_steps : int;  (** livelock guard; exceeding it sets [timed_out] *)
  verbose : bool;  (** echo every event to stderr *)
  deadline : deadline option;  (** optional watchdog; see {!deadline} *)
}

val default_config : config
(** seed 0, [Every_op], no trace, 2M steps, quiet, no deadline. *)

exception Engine_invariant of string
(** Internal-consistency violation (e.g. a strategy returning a
    non-enabled tid); never raised by correct strategies. *)

val run :
  ?config:config ->
  ?listeners:(Event.t -> unit) list ->
  ?btrace:Btrace.writer ->
  strategy:Strategy.t ->
  (unit -> unit) ->
  Outcome.t
(** [run ~config ~listeners ~strategy main] executes one schedule.
    [listeners] observe every event online (detectors attach here).
    Resets the domain-local {!Rf_util.Loc} and {!Lock} counters, so
    allocation order is deterministic per run.

    [btrace] attaches a binary trace writer ({!Rf_events.Btrace}): every
    event is appended to the recording {e directly} — no [Event.t] is
    allocated, no lockset is snapshotted, and each thread's lockset id
    is re-interned only when its lockset changes — so recording for
    offline detection costs a small constant per step instead of the
    inline-detector tax.  The caller seals the writer after the run.
    Composes with [listeners]/[record_trace]; both channels see the same
    event sequence. *)
