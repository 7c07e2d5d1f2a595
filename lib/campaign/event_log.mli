(** Campaign observability {e and} durability: a structured event stream
    that doubles as the crash-recovery journal.

    Every significant campaign step — trials starting and finishing, pairs
    getting resolved or quarantined, budget moving between pairs, workers
    crashing and respawning — is an {!event}.  Sinks render events as JSONL
    (one JSON object per line, with a sequence number and
    seconds-since-start timestamp), so a campaign run can be tailed live or
    analyzed offline.  All sinks are safe to share between worker domains:
    one mutex serializes rendering, writing and closing, so lines are never
    interleaved or torn by concurrent writers.

    A file journal ({!open_file}) begins with a [Journal_opened] schema
    header and can be {!load}ed back: [Trial_finished] / [Trial_crashed] /
    [Trial_exhausted] records carry everything deterministic aggregation
    needs, which is what makes checkpoint/resume
    ([Campaign.fuzz_pairs ~resume]) possible.

    Line order.  [Journal_opened] comes first, [Campaign_started] precedes
    every trial line, and exactly one [Phase1_finished] comes before
    [Campaign_finished].  When phase 1 streams its pairs into phase 2
    ([Campaign.run] on two or more in-process domains without a budget),
    [Campaign_started] is written before phase 1 starts, trial lines
    interleave with phase 1, each [Pair_filtered] is written when its pair
    arrives, [Phase1_finished] and [Static_classified] when phase 1 ends,
    and wave 0's [Wave_started] when its input closes — after its first
    trial lines.  Otherwise phase 1's lines all precede
    [Campaign_started].  Resume reads trial records only, so it accepts
    either order. *)

val schema_version : int
(** Journal schema of this writer: 5.  One line per version bump:
    - v1: no header; [Trial_finished] without steps / switches / exns.
    - v2: [Journal_opened] header and the fields resume replays.
    - v3: per-line checksums and the degradation labels.
    - v4: static pre-filter events ([Pair_filtered], [Static_classified]).
    - v5: phase-1 detector identity and (sampling) miss bound on
      [Phase1_finished].  Since the sampling detector was removed these
      two fields are no longer written; the reader still accepts and
      ignores them, so v5 journals that carry them resume as before.
      The [phase1_recorded] and [traces_saved] records of the former
      binary recording pass are no longer written either; they load as
      unknown whole records, skipped without counting as corrupt.
    Older journals load as observability events only — the resume gate
    compares schemas, so resuming from one simply re-runs everything. *)

type event =
  | Journal_opened of { schema : int }  (** first line of a file journal *)
  | Campaign_started of {
      domains : int;
      base_trials : int;  (** trials initially granted per pair *)
      budget : int option;  (** total trial budget; [None] = pairs * base *)
      cutoff : bool;
    }
  | Phase1_finished of {
      potential : int;
      wall : float;
      degraded : bool;  (** detection ran under a tripped governor *)
      level : string;  (** final ladder level ("full" when not degraded) *)
    }
  | Wave_started of { wave : int; tasks : int }
      (** [tasks] trials queued; a streamed wave 0 counts every pair that
          arrived *)
  | Trial_started of { pair : string; seed : int; domain : int }
  | Trial_finished of {
      pair : string;
      seed : int;
      domain : int;
      race : bool;
      error : bool;  (** race created and an uncaught exception followed *)
      deadlock : bool;
      steps : int;
      switches : int;
      exns : int;  (** uncaught program exceptions in the trial *)
      wall : float;
      degraded : bool;  (** the trial's governor tripped at least once *)
      level : string;  (** final {!Rf_resource.Governor.level} as string *)
      trigger : string;  (** first trip trigger; [""] when not degraded *)
      evicted : int;  (** state entries shed by degradation *)
    }
      (** Carries every field deterministic aggregation and the campaign
          fingerprint read, so resume can replay it without re-executing. *)
  | Trial_crashed of {
      pair : string;
      seed : int;
      domain : int;
      exn_ : string;
      backtrace : string;
    }
      (** The harness (not the program under test) raised; the trial was
          sandboxed and the campaign continued. *)
  | Trial_exhausted of {
      pair : string;
      seed : int;
      domain : int;
      reason : string;
          (** "wall deadline", "step deadline", "heap watermark" or
              "detector budget" *)
      steps : int;
      wall : float;
    }  (** A watchdog cancelled the trial ({!Rf_runtime.Engine.deadline}). *)
  | Pair_filtered of { pair : string; reason : string }
      (** the static pre-filter proved the pair [Impossible] ([reason] is
          the {!Rf_static.Static.verdict} rendering); no phase-2 trial
          will run for it.  Written when the pair arrives from phase 1. *)
  | Static_classified of {
      universe : int;  (** same-variable site pairs in the whole program *)
      universe_impossible : int;
      frontier : int;  (** phase-1 candidate pairs handed to the filter *)
      likely : int;
      unknown : int;
      impossible : int;  (** frontier pairs classified [Impossible] *)
      filtered : int;  (** pairs actually skipped (0 unless filtering) *)
      wall : float;  (** classification time, seconds *)
    }
      (** summary of one {!Rf_static.Static.classify} pass over the
          phase-1 frontier, emitted when phase 1 ends whether or not
          [--static-filter] actually skips anything *)
  | Pair_resolved of { pair : string; at_trial : int }
      (** the pair is classified real and harmful by its trial prefix
          [0..at_trial]; queued trials past that index will be cancelled.
          Emitted when the pair first resolves and again whenever a
          late-finishing earlier trial lowers the cut, so the last one
          per pair is the final cut. *)
  | Pair_quarantined of { pair : string; crashes : int; at_trial : int }
      (** the pair crashed the harness [crashes] times; trials past
          [at_trial] are skipped and the pair is reported, not fatal.
          Emitted when the pair first reaches the crash threshold and
          again whenever a late-finishing lower crash lowers the bound,
          so the last one per pair holds the final bound. *)
  | Trials_cancelled of { pair : string; count : int }
  | Budget_granted of { pair : string; extra : int }
      (** trials freed by a resolved pair, reallocated to this one *)
  | Worker_crashed of { domain : int; attempt : int; exn_ : string }
  | Worker_respawned of { domain : int; attempt : int; backoff : float }
  | Worker_gave_up of { domain : int }
      (** respawn budget exhausted; the campaign continues degraded *)
  | Worker_spawned of { worker : int; pid : int }
      (** a multi-process campaign worker process started ({!Proc_pool}) *)
  | Worker_killed of { worker : int; pid : int; reason : string }
      (** the supervisor SIGKILLed a worker process: heartbeat deadline
          exceeded, corrupt IPC frame, or campaign interruption *)
  | Corpus_updated of { dir : string; added : int; deduped : int; total : int }
      (** the persistent corpus absorbed this campaign's artifacts
          ([--corpus]): [added] new entries, [deduped] already present *)
  | Resume_loaded of { entries : int; skipped : int }
      (** [--resume] replayed a prior journal: [entries] finished trials
          reused, [skipped] corrupt lines dropped (those trials re-ran) *)
  | Campaign_interrupted of { executed : int; remaining : int }
      (** graceful stop: workers drained, journal flushed, partial report *)
  | Repro_written of {
      pair : string;
      fingerprint : string;  (** error fingerprint the schedule reproduces *)
      seed : int;  (** witness seed of the emitted schedule *)
      file : string;  (** the [*.sched.json] path *)
      steps_before : int;
      steps_after : int;
      switches_before : int;
      switches_after : int;
      oracle_runs : int;
    }
      (** a minimized reproduction schedule was written ([--repro-dir]);
          before/after counts are the {!Rf_replay.Shrinker} measure *)
  | Campaign_finished of {
      wall : float;
      trials : int;
      cancelled : int;
      throughput : float;  (** trials per second of phase-2 wall time *)
    }

val event_name : event -> string

val to_json : seq:int -> elapsed:float -> event -> string
(** One JSON object, no trailing newline. *)

(** {1 Reading journals back} *)

val event_of_json : string -> event option
(** Parse one journal line.  [None] for torn lines, non-JSON, or unknown
    event shapes.  Lines are one flat object, read and written through
    {!Rf_util.Json}, the codec every artifact on disk shares; a file
    journal seals each line with {!Rf_util.Json.seal}. *)

(** {1 The shared codec under its journal names}

    [campaign_bench/journal.ml] compiles against these names, so they
    stay here as the very type and functions of {!Rf_util.Json}; every
    other caller uses that module directly. *)

type jv = Rf_util.Json.t =
  | I of int
  | F of float
  | S of string
  | B of bool
  | Null
  | A of jv list
  | O of (string * jv) list

val parse_flat : string -> (string * jv) list option
(** {!Rf_util.Json.parse_flat}. *)

type seal_status = Rf_util.Json.seal_status =
  | Sealed_ok
  | Sealed_bad
  | Unsealed

val check_seal : string -> seal_status
(** {!Rf_util.Json.check_seal}. *)

val load_result : string -> event list * int
(** Read a JSONL journal; also count the checksum-bad lines that were
    skipped.  Unknown-but-well-formed lines are skipped (forward
    compatibility); a torn trailing line — the signature of a crashed
    writer — ends the journal without error; a checksum-bad line is
    skipped and counted, and reading continues (in-place corruption does
    not invalidate the rest of the journal).  Raises [Sys_error] if the
    file cannot be opened. *)

val load : string -> event list
(** {!load_result} without the skip count. *)

(** {1 Sinks} *)

type t

val null : unit -> t
(** Drops everything (and skips rendering). *)

val open_file : string -> t
(** JSONL journal in a fresh file, starting with a [Journal_opened] schema
    header; closed by {!close}. *)

val memory : unit -> t
(** Accumulates events in memory for tests; read back with {!events}. *)

val emit : t -> event -> unit
(** Thread-safe from any domain; a no-op after {!close}. *)

val events : t -> event list
(** Events seen so far, oldest first; [[]] for non-memory sinks. *)

val close : t -> unit
(** Close an {!open_file} journal's channel.  Idempotent; serialized
    against concurrent {!emit}s. *)
