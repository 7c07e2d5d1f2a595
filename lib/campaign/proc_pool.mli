(** Multi-process campaign execution: crash-isolated worker processes.

    The in-process domain pool ({!Supervisor}) survives harness crashes
    because trials are carefully sandboxed; it cannot survive a segfault,
    a runaway allocation, or a C-level hang — anything that takes the
    whole process takes the campaign.  This module moves the isolation
    boundary to the OS: trial assignments are shipped over pipes to
    worker {e processes} (a hidden [campaign-worker] mode of the CLI
    binary), so the kernel reclaims whatever a worker leaks and a kill
    costs one in-flight trial, never the run.

    {2 Wire format}

    Both pipe directions carry length-prefixed FNV-1a-64-sealed frames,
    the repository's one sealed-frame binary codec:

    {v
    frame   := u32:len payload[len] u64:fnv1a64(payload)   (len > 0)
    payload := tag:u8 fields...
    v}

    All integers little-endian; strings [u32]-length-prefixed; floats as
    IEEE-754 bits.  A torn, truncated or bit-flipped frame raises
    {!Frame.Corrupt} with the offending byte offset, and the supervisor
    treats the sender as dead — corrupt IPC is detected, never misparsed
    into a wrong result.

    Racing pairs cross the process boundary {e structurally}: a site is
    shipped as its (file, line, col, label) key and re-interned in the
    worker ({!Rf_util.Site.make}), so workers never rerun phase 1 and
    wire ids never touch the site registry.

    {2 Supervision}

    The pool keeps one pipe pair per worker and multiplexes them with
    [select].  Any frame from a worker refreshes its heartbeat; a worker
    that stays silent past the deadline while holding an assignment is
    SIGKILLed and its assignment requeued.  Dead workers respawn with the
    {!Supervisor} backoff curve until the policy's respawn budget is
    exhausted; every child is [waitpid]-reaped (no zombies, no orphans).
    Per-worker rlimits (address space, CPU) are applied by spawning
    through [sh -c 'ulimit ...; exec "$@"'], so an OOM or spin kills one
    worker, not the campaign.

    Results are {e records}, not live values.  Workers and the
    campaign's in-process tier compute them with one trial body
    ({!execute}), and the campaign settles every {!tresult} — from a
    domain, a worker or a resume journal — by rebuilding the trial with
    [Fuzzer.trial_of_record], which is what makes multi-process
    fingerprints byte-identical to in-process ones. *)

open Rf_util

(** {1 Frames} *)

module Frame : sig
  exception Corrupt of string
  (** Malformed frame: zero or oversized length, truncated payload, or
      checksum mismatch.  The message pinpoints the byte offset. *)

  val max_len : int
  (** Sanity cap on a frame's payload size (16 MiB). *)

  val encode : string -> string
  (** Seal one payload into a frame. *)

  val decode : Buffer.t -> string option
  (** Extract the first complete frame's payload from an inbound byte
      buffer, consuming it; [None] when the buffer holds only a frame
      prefix (read more and retry).  Raises {!Corrupt} on a defective
      frame. *)
end

(** {1 Messages} *)

type init = {
  i_target : string;
      (** workload name or RFL path, resolved by the worker *)
  i_max_steps : int;
  i_postpone : int option option;
      (** the trial's [?postpone_timeout], all three states; the campaign
          always sends [None], the strategy's default *)
  i_detector_budget : int option;
  i_mem_budget : float option;
  i_no_degrade : bool;
  i_trial_wall : float option;  (** per-trial wall watchdog, seconds *)
}

type assignment = {
  a_id : int;  (** unique per campaign; echoed in the result *)
  a_pair : Site.Pair.t;
  a_seed : int;
  (* chaos faults, precomputed supervisor-side so the worker needs no plan *)
  a_crash : bool;  (** raise [Chaos.Injected_crash] inside the sandbox *)
  a_stall : float;  (** sleep this long before the trial (0 = none) *)
  a_tripped : bool;  (** trip the trial's governor one rung at start *)
  a_die : bool;  (** SIGKILL self on receipt (real process death) *)
  a_torn : bool;  (** reply with a deliberately corrupted frame *)
  a_hang : bool;  (** hang forever (exercises the heartbeat deadline) *)
}

(** A finished trial, as the wire and the journal carry it: exactly the
    journal's [Trial_finished]/[Trial_crashed]/[Trial_exhausted] payload.
    It is the only form in which a trial result reaches campaign
    aggregation, whether the trial ran on a domain, in a worker process
    or was replayed from a resume journal. *)
type tresult =
  | T_finished of {
      t_race : bool;
      t_deadlock : bool;
      t_steps : int;
      t_switches : int;
      t_exns : int;
      t_wall : float;
      t_degraded : bool;
      t_level : string;
      t_trigger : string;
      t_evicted : int;
    }
  | T_crashed of { t_exn : string; t_backtrace : string }
  | T_exhausted of { t_reason : string; t_steps : int; t_wall : float }

(** {1 The trial body} *)

val execute : init -> program:(unit -> unit) -> assignment -> tresult
(** Run one assignment's trial: fresh governance from [init]
    ([Fuzzer.governance]), the assignment's result-bearing chaos faults
    ([a_stall], [a_crash], [a_tripped]) injected inside the sandbox, then
    [Fuzzer.run_trial], recorded as a {!tresult}.  The only trial body:
    the worker loop calls it for every assignment and the campaign's
    in-process tier calls it for every executed trial, so both tiers
    compute byte-identical records.  The transport faults ([a_die],
    [a_torn], [a_hang]) belong to the worker loop and are ignored here. *)

(** {1 The worker half} *)

val worker_main : resolve:(string -> (unit -> unit) option) -> unit -> 'a
(** Run the [campaign-worker] protocol over stdin/stdout: read {!init},
    resolve the target, send Ready, then execute assignments until a
    Shutdown frame or EOF.  Never returns; exits 0 on orderly shutdown,
    2 when the init frame is corrupt or the target does not resolve.
    SIGINT is ignored (the supervisor owns worker lifecycles — a
    terminal ^C must not race the supervisor's kill-and-reap) and
    SIGPIPE is disabled in favour of EPIPE. *)

(** {1 The supervisor half} *)

type spec = {
  sp_cmd : string array;
      (** argv to exec a worker, e.g. [[| exe; "campaign-worker" |]] *)
  sp_workers : int;
  sp_heartbeat : float;
      (** SIGKILL a busy worker silent for this many seconds; make it
          comfortably larger than any trial deadline *)
  sp_rlimit_as_mb : int option;  (** per-worker address-space cap *)
  sp_rlimit_cpu_s : int option;  (** per-worker CPU-seconds cap *)
  sp_policy : Supervisor.policy;  (** respawn budget + backoff curve *)
  sp_target : string;  (** forwarded to workers in {!init} *)
}

val default_heartbeat : float

type t

type event =
  | Ev_ready of { ev_worker : int; ev_pid : int }
      (** worker completed its init handshake *)
  | Ev_result of { ev_worker : int; ev_id : int; ev_result : tresult }
  | Ev_died of {
      ev_worker : int;
      ev_pid : int;
      ev_in_flight : int option;  (** assignment to requeue, if any *)
      ev_reason : string;
      ev_killed : bool;  (** the supervisor killed it (heartbeat/corrupt) *)
      ev_respawning : bool;
    }
  | Ev_respawned of { ev_worker : int; ev_pid : int; ev_attempt : int; ev_backoff : float }
  | Ev_gave_up of int  (** respawn budget exhausted for this worker slot *)

val create : spec -> init:init -> t
(** Spawn the fleet and send every worker its {!init} frame.  Spawning is
    asynchronous: exec failures surface as early worker deaths, so gate
    on {!await_ready} before dispatching. *)

val await_ready : t -> timeout:float -> bool
(** Wait until at least one worker completes its handshake; [false] when
    the whole fleet died first or the timeout expired — the caller
    should {!kill_all} and fall back to the in-process domain pool. *)

val idle_workers : t -> int list
(** Workers ready for an assignment, in slot order. *)

val alive : t -> int
(** Workers currently running (including ones mid-respawn-handshake). *)

val gone : t -> bool
(** Every worker slot is dead with its respawn budget exhausted. *)

val assign : t -> worker:int -> assignment -> unit
(** Ship an assignment to an idle worker.  A write failure (worker died
    under us) is absorbed: the death, with this assignment in flight,
    surfaces from the next {!poll}. *)

val poll : t -> timeout:float -> event list
(** Multiplex the fleet: drain readable pipes, decode complete frames,
    enforce heartbeat deadlines, execute due respawns, reap the dead.
    Blocks at most [timeout] seconds; returns accumulated events (possibly
    none). *)

val shutdown : t -> grace:float -> unit
(** Orderly teardown: Shutdown frames to idle workers, up to [grace]
    seconds for voluntary exits (it returns once every worker has closed
    its pipe), then SIGKILL and reap every survivor.  Idempotent; no
    children remain afterwards. *)

val kill_all : t -> unit
(** [shutdown ~grace:0.] — immediate SIGKILL + reap of the whole fleet
    (the SIGINT path: reap all children {e before} the final journal
    write). *)

val pids : t -> int list
(** Live worker pids (for tests). *)
