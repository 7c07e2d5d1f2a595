(** The long-lived campaign service: [racefuzzer serve CORPUS_DIR].

    A batch campaign starts cold, runs once and exits; [serve] keeps the
    corpus {e continuously true}.  Each cycle it (a) re-validates every
    corpus repro by replaying its minimized schedule — flagging entries
    [still-racy], [fixed], [regressed] — and checks non-replayable
    artifacts for integrity; (b) schedules fresh campaign waves over the
    registered targets under per-target token-bucket pacing; and (c)
    with [--watch], polls file targets for mtime changes and re-runs
    them immediately, outside their token bucket.

    Robustness is the core contract:

    - {b Crash safety.} All scheduler state lives in a sealed-JSONL
      ledger ([DIR/serve.ledger.jsonl], same codec and {!Rf_util.Atomic_file}
      discipline as the corpus index), rewritten after every verdict.
      SIGKILL + restart resumes the in-progress cycle: items already
      settled this cycle are not re-run, unsettled ones are — no lost or
      duplicated work, and byte-identical cycle verdict fingerprints.
    - {b Retry with backoff.} Flaky replay attempts retry under a
      deterministic exponential-backoff-with-jitter policy ({!Retry},
      jitter keyed by FNV-1a so delays are reproducible); exhausting the
      budget scores a strike, and [rp_strikes] strikes quarantine the
      item with a journaled reason.
    - {b Graceful degradation.} A requested worker fleet that fails its
      handshake degrades to in-process execution; the achieved width is
      recorded per cycle and surfaced by {!status}.
    - {b Deterministic chaos.} The service-tier faults in {!Chaos.plan}
      (kill-mid-revalidation, torn index/ledger lines between cycles,
      watch-event storms) exercise every recovery path in tests. *)

(** {1 Retry policy} *)

module Retry : sig
  type policy = {
    rp_max_attempts : int;  (** attempts per item per cycle before failing *)
    rp_base : float;  (** first backoff delay, seconds *)
    rp_factor : float;  (** backoff multiplier per attempt *)
    rp_max : float;  (** backoff cap, seconds *)
    rp_jitter : float;
        (** relative jitter width: the delay is scaled by a factor drawn
            deterministically from [1 ± rp_jitter] *)
    rp_strikes : int;  (** failed cycles before an item is quarantined *)
  }

  val default : policy
  (** 3 attempts, 10ms base doubling to a 500ms cap, ±25% jitter,
      quarantine after 3 strikes. *)

  val jitter_unit : key:string -> attempt:int -> float
  (** Deterministic uniform draw in [0, 1) from FNV-1a over
      ([key], [attempt]) — the same item's same attempt always jitters
      identically, so backoff schedules are reproducible. *)

  val delay : policy -> key:string -> attempt:int -> float
  (** Backoff before retrying [attempt] (1-based: the delay after the
      first failure is [delay ~attempt:1]).  Never negative. *)

  val exhausted : policy -> attempt:int -> bool
  (** [attempt >= rp_max_attempts]. *)
end

(** {1 The scheduler ledger} *)

module Ledger : sig
  type verdict =
    | Still_racy  (** the repro replayed and reproduced its error *)
    | Regressed  (** previously [Fixed], now reproducing again *)
    | Fixed  (** the repro no longer reproduces its recorded error *)
    | Intact  (** non-replayable artifact present with matching CRC *)
    | Failed  (** every replay/check attempt failed this cycle *)

  val verdict_to_string : verdict -> string
  val verdict_of_string : string -> verdict option

  type item = {
    li_kind : string;  (** corpus entry kind *)
    li_key : string;  (** corpus entry key *)
    li_verdict : verdict;
    li_cycle : int;  (** cycle that last settled this item *)
    li_attempts : int;  (** attempts spent when it settled *)
    li_strikes : int;  (** accumulated failed cycles *)
    li_quarantine : string;  (** quarantine reason; [""] = active *)
  }

  type target = {
    lt_name : string;
    lt_tokens : float;  (** token-bucket level after the last cycle *)
    lt_mtime : float;  (** last observed mtime; [0.] for non-files *)
    lt_campaigns : int;  (** campaign waves run against this target *)
    lt_confirmed : string;  (** last confirmed-verdict fingerprint *)
  }

  type cycle = {
    lc_cycle : int;
    lc_fingerprint : string;
        (** digest of every (kind, key, verdict) settled in this cycle —
            attempt counts excluded, so chaos retries and kill/restart
            boundaries fingerprint identically *)
    lc_checked : int;
    lc_still : int;
    lc_fixed : int;
    lc_regressed : int;
    lc_intact : int;
    lc_failed : int;
    lc_campaigns : int;  (** campaign waves run in this cycle *)
    lc_wreq : int;  (** worker processes requested *)
    lc_wact : int;  (** worker processes achieved ([< lc_wreq] = degraded) *)
  }

  type t = {
    mutable l_cycle : int;  (** the in-progress cycle (1-based) *)
    l_items : (string * string, item) Hashtbl.t;
    l_targets : (string, target) Hashtbl.t;
    mutable l_cycles : cycle list;  (** completed cycles, oldest first *)
  }

  val path : string -> string
  (** [DIR/serve.ledger.jsonl]. *)

  val load : string -> t * int
  (** Ledger of a corpus dir plus the count of checksum-bad or torn
      lines skipped (tolerant, like {!Corpus.load}); a fresh ledger at
      cycle 1 when the file does not exist. *)

  val save : dir:string -> t -> unit
  (** Atomically rewrite the whole ledger (sealed header, then one
      sealed line per item / target / completed cycle). *)
end

(** {1 Serving} *)

type config = {
  v_cycles : int;
      (** stop after this many {e completed-in-ledger} cycles; [0] = run
          until signalled.  Resume-aware: a restart after a crash counts
          the cycles the ledger already finished. *)
  v_period : float;  (** sleep between cycles, seconds (interruptible) *)
  v_watch : bool;  (** poll file targets for mtime changes *)
  v_rate : float;  (** tokens refilled per target per cycle *)
  v_burst : float;  (** token-bucket capacity *)
  v_retry : Retry.policy;
  v_targets : string list;  (** targets beyond those the corpus names *)
  v_domains : int;
  v_phase1_seeds : int;
  v_seeds_per_pair : int;
  v_proc : Proc_pool.spec option;
      (** worker-fleet template; [sp_target] is overridden per target *)
  v_chaos : Chaos.plan option;
}

val default_config : config
(** One cycle budget of everything small: period 1s, rate 1 burst 2,
    {!Retry.default}, 1 domain, 1 phase-1 seed, 20 trials per pair, no
    fleet, no watch, run forever. *)

val serve :
  ?log:Event_log.t ->
  ?stop:Campaign.stop_switch ->
  config ->
  resolve:(string -> (Racefuzzer.Fuzzer.program, string) result) ->
  dir:string ->
  int
(** Run the service loop over corpus [dir]; returns the process exit
    code (0 on clean drain — cycle bound reached or [stop] requested).
    [resolve] maps a target name (registry workload or RFL path) to a
    runnable program; targets that fail to resolve are skipped with a
    console note.  Each wave's campaign runs its own phase 1 over
    [v_phase1_seeds] seeds; a [p1cache/] directory an older build left in
    [dir] is not read. *)

val status : dir:string -> int
(** One-shot report: completed cycles, last-cycle verdict counts and
    fingerprint, quarantined items with reasons, fleet state (requested
    vs achieved workers), corpus strict-verify result, corrupt-line
    counts.  Exit code 0, or 1 when the corpus fails strict
    verification. *)
