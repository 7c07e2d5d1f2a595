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
    ([Campaign.fuzz_pairs ~resume]) possible. *)

val schema_version : int
(** Journal schema of this writer: 5.  One line per version bump:
    - v1: no header; [Trial_finished] without steps / switches / exns.
    - v2: [Journal_opened] header and the fields resume replays.
    - v3: per-line checksums and the degradation labels.
    - v4: static pre-filter events ([Pair_filtered], [Static_classified]).
    - v5: phase-1 detector identity and (sampling) miss bound on
      [Phase1_finished].
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
      detector : string;  (** which detector ran ("hybrid", "sampling") *)
      miss_bound : float option;
          (** sampling only: upper bound on the probability that any
              particular racing pair went unobserved this run *)
    }
  | Phase1_recorded of {
      events : int;  (** engine events captured in the binary recordings *)
      bytes : int;  (** total sealed {!Rf_events.Btrace} size *)
      shards : int;  (** offline detection shards *)
      record_wall : float;  (** executing + recording, seconds *)
      detect_wall : float;  (** offline detection pass, seconds *)
    }
      (** phase 1 ran record-then-detect ([--offline-detect]); emitted
          just before [Phase1_finished], whose [wall] covers both
          spans *)
  | Wave_started of { wave : int; tasks : int }
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
          will run for it *)
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
          phase-1 frontier, emitted whether or not [--static-filter]
          actually skips anything *)
  | Pair_resolved of { pair : string; at_trial : int }
      (** the pair is classified real and harmful by its trial prefix
          [0..at_trial]; queued trials past that index will be cancelled *)
  | Pair_quarantined of { pair : string; crashes : int; at_trial : int }
      (** the pair crashed the harness [crashes] times; trials past
          [at_trial] are skipped and the pair is reported, not fatal *)
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
  | Traces_saved of { dir : string; count : int; bytes : int }
      (** phase-1 binary recordings persisted ([--save-traces]) *)
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
    event shapes. *)

val seal : string -> string
(** Append a ["crc"] field (FNV-1a-64 hex of the unsealed line) before
    the closing brace.  {!emit} seals every line it writes. *)

type seal_status =
  | Sealed_ok  (** checksum present and matching *)
  | Sealed_bad  (** checksum present but wrong: corrupted in place *)
  | Unsealed  (** no checksum (pre-v3 journal line) *)

val check_seal : string -> seal_status

(** {1 Flat-object JSON codec}

    The journal's line format — one flat JSON object, scalar fields only —
    reused by sibling artifacts (the {!Corpus} index) so the repo has one
    hand-rolled JSON codec, not several. *)

type jv = I of int | F of float | S of string | B of bool | Null

val render_flat : (string * jv) list -> string
(** One flat JSON object, unsealed; compose with {!seal} for durable
    lines. *)

val parse_flat : string -> (string * jv) list option
(** Inverse of {!render_flat} (field order preserved); [None] on torn or
    non-flat input. *)

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

val to_channel : out_channel -> t
(** JSONL to a channel, flushed per line; the channel is not closed by
    {!close}. *)

val open_file : string -> t
(** JSONL journal in a fresh file, starting with a [Journal_opened] schema
    header; closed by {!close}. *)

val memory : unit -> t
(** Accumulates events in memory for tests; read back with {!events}. *)

val emit : t -> event -> unit
(** Thread-safe from any domain; a no-op after {!close}. *)

val events : t -> event list
(** Events seen so far, oldest first; [[]] for non-memory sinks. *)

val flush_log : t -> unit

val close : t -> unit
(** Flush and (for {!open_file}) close the underlying channel.
    Idempotent; serialized against concurrent {!emit}s. *)
