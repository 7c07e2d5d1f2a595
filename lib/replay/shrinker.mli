(** Counterexample minimization: delta-debugging over schedules.

    Given a failing schedule and an {e oracle} that can execute a
    candidate schedule and report whether the failure reproduces, the
    shrinker searches for a shorter, less-preempted schedule with the
    same error fingerprint — Zeller–Hildebrandt ddmin adapted to
    scheduling decisions, plus the two schedule-specific moves from the
    dejafu lineage: truncating everything after the error manifests,
    and coalescing context switches by reordering thread runs.

    The oracle owns execution (typically lenient replay followed by
    re-recording; see [Rf_core.Fuzzer.schedule_oracle]), which keeps
    this module free of engine dependencies and makes every accepted
    shrink validated — the result is always a schedule the oracle
    confirmed, never an unchecked edit.  Minimization is deterministic:
    no randomness, no wall-clock, fixed iteration order, improvements
    accepted only when strict under the (steps, switches) measure. *)

type stats = {
  sh_steps_before : int;
  sh_steps_after : int;
  sh_switches_before : int;
  sh_switches_after : int;
  sh_oracle_runs : int;  (** executions spent, bounded by [fuel] *)
}

val pp_stats : Format.formatter -> stats -> unit

val minimize :
  ?fuel:int ->
  oracle:(Schedule.t -> Schedule.t option) ->
  Schedule.t ->
  (Schedule.t * stats) option
(** [minimize ~oracle sched] — [None] when the oracle cannot reproduce
    [sched]'s failure at all; otherwise the minimized schedule and the
    search statistics.  [oracle candidate] must return [Some exact]
    when executing [candidate] reproduces the original error
    fingerprint, where [exact] is the full re-recording of that
    execution — the shrinker's final answer is an exact prefix of a
    witnessed run, so it replays under {!Replayer.Exact} with no
    divergence, or [sched] itself.  [fuel] caps oracle executions
    (default 500); when it runs out the best schedule found so far is
    returned, and never one that measures more than [sched]: when fuel
    runs out before a prefix shorter than [sched] is confirmed, the
    answer is [sched].  Idempotent on the (steps, switches) measure:
    minimizing a minimized schedule finds nothing further to remove. *)
