(** Deterministic chaos injection for exercising the campaign's fault
    tolerance: injected harness crashes, artificial stalls, worker deaths
    and early stops, all derived from one chaos seed.

    The invariant that makes chaos useful as a {e test} rather than mere
    noise: result-bearing faults (crashes, stalls) are pure functions of
    (chaos seed, pair label, trial seed), so every run of the same campaign
    under the same chaos plan quarantines the same pairs and produces the
    same fingerprint — regardless of domain count, worker deaths, or
    kill/resume boundaries.  Liveness-only faults (worker deaths) are
    counter-based and may land on different tasks run-to-run; they must not
    (and, because aggregation is domain-agnostic, do not) affect results. *)

type plan = {
  c_seed : int;
  c_crash_rate : float;  (** probability a trial raises {!Injected_crash} *)
  c_stall_rate : float;  (** probability a trial sleeps before starting *)
  c_stall_seconds : float;
  c_budget_rate : float;
      (** probability a trial's resource governor is tripped down one
          degradation rung at start ({!trips_budget}) *)
  c_trial_deadline : float option;
      (** per-trial wall watchdog to apply campaign-wide, so stalls are
          cancelled rather than waited out *)
  c_death_every : int option;  (** kill a worker every N task pops *)
  c_max_deaths : int;
  c_stop_after : int option;
      (** request a graceful campaign stop after N executed trials — the
          deterministic "kill" half of kill/resume tests *)
  c_kill_assignment : int option;
      (** multi-process campaigns only: the worker holding the Nth
          dispatched assignment SIGKILLs itself on receipt — a {e real}
          process death, exercising reap/requeue/respawn *)
  c_torn_frame : int option;
      (** multi-process campaigns only: the worker holding the Nth
          assignment replies with a deliberately corrupted IPC frame, so
          the supervisor must detect it ({!Proc_pool.Frame.Corrupt}) and
          treat the worker as dead rather than misparse the result *)
  c_hang_assignment : int option;
      (** multi-process campaigns only: the worker holding the Nth
          assignment hangs forever, forcing the supervisor's
          heartbeat-deadline SIGKILL *)
  c_die_reval : int option;
      (** serve mode only: the process SIGKILLs itself just before
          persisting the Nth re-validation verdict of this process run —
          the deterministic "crash mid-cycle" half of ledger-resume tests *)
  c_fail_reval : int option;
      (** serve mode only: every replay attempt of the Nth item processed
          this run raises {!Injected_crash}, driving the retry budget to
          exhaustion and (with enough strikes) quarantine *)
  c_torn_index_cycle : int option;
      (** serve mode only: a torn garbage line is appended to the corpus
          index at the start of the Nth cycle, before the heal step *)
  c_torn_ledger_cycle : int option;
      (** serve mode only: same as {!c_torn_index_cycle} but for the
          scheduler ledger *)
  c_watch_storm : int option;
      (** serve mode only: during the Nth cycle every watched target
          reports as changed at once; the service must coalesce to at most
          one re-run per target per cycle *)
}

val plan :
  ?crash_rate:float ->
  ?stall_rate:float ->
  ?stall_seconds:float ->
  ?budget_rate:float ->
  ?trial_deadline:float ->
  ?death_every:int ->
  ?max_deaths:int ->
  ?stop_after:int ->
  ?kill_assignment:int ->
  ?torn_frame:int ->
  ?hang_assignment:int ->
  ?die_reval:int ->
  ?fail_reval:int ->
  ?torn_index_cycle:int ->
  ?torn_ledger_cycle:int ->
  ?watch_storm:int ->
  int ->
  plan
(** [plan seed] with everything off by default; enable faults explicitly. *)

val default : int -> plan
(** The [--chaos] preset: 8% crashes, 4% stalls, 5% budget trips, a 2s
    trial deadline, a worker death every 25 pops (max 2). *)

exception Injected_crash of string
(** Raised inside the trial sandbox; surfaces as
    [Fuzzer.Harness_crash]. *)

exception Injected_death
(** Raised on a worker thread outside any sandbox; kills the domain so the
    supervisor must respawn it and requeue the in-flight task. *)

val crashes : plan -> label:string -> seed:int -> bool
val stalls : plan -> label:string -> seed:int -> bool

val trips_budget : plan -> label:string -> seed:int -> bool
(** Whether this trial's governor is forced one rung down the degradation
    ladder before the engine starts — deterministic per (plan, label,
    seed), so degraded trials land identically across domain counts and
    kill/resume boundaries. *)

(** {1 Worker deaths} *)

type state
(** Mutable death bookkeeping shared by all workers of one campaign. *)

val state : unit -> state

val kills_worker : plan -> state -> bool
(** Count a task pop; [true] when this pop should kill its worker (the
    caller raises {!Injected_death} after safely recording the in-flight
    task).  At most [c_max_deaths] grants, atomically enforced. *)

val deaths : state -> int
