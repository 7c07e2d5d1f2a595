(** The campaign orchestrator: the one entry point that runs both
    RaceFuzzer phases.

    The paper notes that "different invocations of RaceFuzzer are
    independent of each other [so] performance can be increased linearly
    with the number of processors or cores" — a campaign takes that
    globally: {e all} phase-2 (pair, seed) trials go into a single
    deterministic work queue drained by a pool of OCaml domains or worker
    processes, instead of exploiting parallelism one pair at a time.  On
    one domain with [cutoff] off it is the sequential analysis: every
    trial of every pair, one pair after another.

    {2 Deterministic aggregation}

    Each trial is a pure function of (pair, seed): the engine resets its
    domain-local counters per run, so a trial computes the same result on
    any domain at any time.  Aggregation sorts trials back into their
    logical (pair, trial-index) slots, so campaign results are
    {b bit-identical} for any domain count and any interleaving — and,
    with cutoff disabled, identical to {!Racefuzzer.Fuzzer.phase1}
    followed by {!Racefuzzer.Fuzzer.fuzz_pair} over each frontier pair on
    the same seed lists.

    {2 Early cutoff}

    With [cutoff] on, once a pair is classified both {e real} and
    {e harmful}, its remaining queued trials are cancelled.  The cutoff
    point is defined {e logically}, not temporally: the pair's trial list
    is truncated at the smallest trial index whose prefix contains a race
    trial and an error trial.  Workers may speculatively run trials past
    that index before it is known; their results are discarded at
    aggregation, so the cutoff semantics are also independent of domain
    count.  Freed trials return to the budget pool — the refund is the
    logical [granted - (bound + 1)], never a temporal "how many did we
    happen to skip" — and are reallocated to still-unresolved pairs in
    deterministic round-robin waves.

    {2 Fault tolerance}

    Trials run inside a sandbox ({!Proc_pool.execute}): a
    harness crash or watchdog cancellation is recorded in the journal and
    costs one trial, never the campaign.  A pair that crashes the harness
    [quarantine_crashes] times is {e quarantined} at its Nth-smallest
    crash index — the same monotone-bound construction as cutoff, so
    quarantine decisions are deterministic whenever the crashes are.
    Worker domains are supervised ({!Supervisor}): a dead worker's
    in-flight task is requeued and the worker respawned with exponential
    backoff.  A campaign can be stopped gracefully ({!request_stop}) and
    later resumed from its journal ([resume]), replaying finished trials
    instead of re-executing them — the resumed analysis fingerprints
    identically to an uninterrupted run. *)

open Rf_util
module Fuzzer = Racefuzzer.Fuzzer

(** {1 Graceful stop} *)

type stop_switch
(** A cooperative cancellation flag, safe to flip from a signal handler or
    any domain. *)

val stop_switch : unit -> stop_switch

val request_stop : stop_switch -> unit
(** Workers finish (or skip) their current task and exit; the wave loop
    drains, emits [Campaign_interrupted], and aggregation produces a
    partial — but still deterministic — report. *)

val stop_requested : stop_switch -> bool

(** {1 Stats} *)

type stats = {
  s_pairs : int;
  s_resolved : int;
      (** pairs classified real-and-harmful at or before their final
          skip bound (a resolution past a quarantine bound came from a
          speculative trial and is not counted) *)
  s_trials : int;  (** trials actually executed (excludes replays) *)
  s_cancelled : int;  (** queued trials skipped by cutoff *)
  s_discarded : int;  (** speculative trials run past a resolution point *)
  s_waves : int;
  s_wall : float;
      (** wall-clock seconds of the trial scheduler, from its first wave
          to its last; when phase 1 streams into it ({!run}), this window
          covers phase 1 too *)
  s_campaign_wall : float;
      (** wall-clock seconds from the start of phase 1 to the end of the
          last wave ({!run}; equals [s_wall] for {!fuzz_pairs}) *)
  s_phase1_wall : float;  (** phase 1's part of [s_campaign_wall] *)
  s_throughput : float;  (** executed trials per second of [s_wall] *)
  s_domains : int;
  s_domain_trials : int array;  (** trials executed per domain *)
  s_domain_busy : float array;  (** busy seconds per domain *)
  s_exhausted : int;  (** trials cancelled by the per-trial watchdog *)
  s_crashes : int;
      (** sandboxed harness crashes (incl. injected chaos) at or before
          their pair's final skip bound; the journal also holds the
          speculative ones *)
  s_quarantined : int;
      (** pairs quarantined for repeated crashes: those whose final skip
          bound is their quarantine bound *)
  s_q_skipped : int;  (** trials skipped past a quarantine bound *)
  s_replayed : int;  (** trials satisfied from the resume journal *)
  s_worker_crashes : int;
  s_worker_respawns : int;
  s_worker_gave_up : int;  (** worker slots that exhausted their respawns *)
  s_proc_active : int;
      (** worker processes alive after the init handshake: 0 means the
          requested proc tier degraded to the in-process pool (or none was
          requested) — serve status reports this as fleet degradation *)
  s_interrupted : bool;  (** the campaign was stopped before completion *)
  s_degraded : int;
      (** trials that completed under a tripped resource governor
          (degraded precision, explicitly labeled) *)
  s_p1_level : string option;
      (** phase-1 final ladder level when phase 1 degraded ({!run} only) *)
  s_resume_skipped : int;
      (** checksum-bad journal lines skipped while loading [resume] *)
  s_repro_written : int;  (** minimized reproduction schedules emitted *)
  s_repro_failed : int;  (** witnesses whose minimization failed to reproduce *)
  s_repro_oracle_runs : int;  (** engine runs spent minimizing *)
  s_static : static_summary option;
      (** static pre-filter precision summary ({!run} with [static]) *)
}

and static_summary = {
  st_universe : int;  (** same-variable site pairs in the whole program *)
  st_universe_impossible : int;  (** universe pairs proved [Impossible] *)
  st_frontier : int;  (** phase-1 candidate pairs handed to the filter *)
  st_likely : int;
  st_unknown : int;
  st_impossible : int;  (** frontier pairs classified [Impossible] *)
  st_filtered : int;  (** pairs actually skipped (0 unless filtering) *)
  st_wall : float;  (** classification wall-clock seconds *)
}

type result = {
  analysis : Fuzzer.analysis;
  stats : stats;
  repro : Repro.summary;  (** {!Repro.no_summary} without [repro_dir] *)
}

(** {1 Configuration} *)

type config = {
  domains : int;
      (** in-process domains draining the trial queue; values below 1
          run one *)
  phase1_seeds : int list;
      (** the phase-1 executions' seeds ({!run} only) *)
  seeds_per_pair : int list;
      (** each pair's base trial seeds; trials a [budget] grants past
          the list use fresh seeds above its maximum *)
  cutoff : bool;
      (** early cutoff (above): a pair classified real and harmful runs
          no more trials, and the trials it frees are reallocated to
          unresolved pairs *)
  budget : int option;
      (** total trials across all pairs; [None] grants every pair its
          base list *)
  max_steps : int;  (** engine step budget of every execution *)
  supervision : Supervisor.policy;
      (** worker respawn budget, backoff curve and quarantine threshold *)
  chaos : Chaos.plan option;
      (** deterministic fault injection ({!Chaos}); {!Service.serve}
          reads its service-tier faults from the same plan *)
  trial_deadline : float option;
      (** wall-clock watchdog on every trial, seconds; without it a
          chaos plan's deadline applies *)
  resume : string option;
      (** a journal whose [Trial_*] records are replayed instead of
          re-executed; checksum-bad lines are skipped and counted in
          [s_resume_skipped] *)
  detector_budget : int option;
      (** logical detector-state entries per trial, and for phase 1 as a
          whole.  Over it a run degrades down the ladder and completes
          with journal-labeled results ([s_degraded], [s_p1_level]); the
          trip is a pure function of (pair, seed), so degradation keeps
          cross-domain and resume determinism *)
  mem_budget : float option;
      (** heap watermark in MB, polled at the engine's watchdog points: a
          physical backstop behind [detector_budget], and not
          determinism-preserving *)
  no_degrade : bool;
      (** a budget trip cancels the trial (a [Trial_exhausted] record)
          instead of degrading it, and in phase 1 raises
          {!Rf_resource.Governor.Budget_stop} out of {!run} *)
  proc : Proc_pool.spec option;
      (** run phase 2 on crash-isolated worker processes ({!Proc_pool})
          instead of in-process domains; [domains] is then unused *)
  repro_dir : string option;
      (** write a minimized reproduction schedule per distinct error
          fingerprint here ({!Repro}; {!run} only) *)
  target : string;
      (** the program's name (workload or RFL path): worker processes
          resolve it, and artifacts record it so [replay]/[shrink] can *)
  repro_fuel : int;
      (** oracle executions per schedule minimization
          ({!Repro.write_all}) *)
  static : Rf_static.Static.t option;
      (** a static model of the program ({!run} only): the frontier is
          classified (a [Static_classified] record and [s_static]) and
          fuzzed Likely-first *)
  static_filter : bool;
      (** with [static], skip pairs proved [Impossible] before any trial
          (one [Pair_filtered] record each; they land in
          [analysis.a_filtered]).  The surviving list is deterministic,
          so a filtered journal resumes like any other *)
  offline_shards : int;
      (** detect phase 1 on this many re-executions of its seeds, each
          shard's detector owning a slice of the memory locations
          ({!Fuzzer.detect_mode}).  The pair set, and so the analysis, is
          the same for any count; 1 (or less) is inline detection, and a
          governed phase 1 runs its shards one after another ({!run}
          only) *)
  corpus : string option;
      (** a persistent cross-campaign store ({!Corpus}) that absorbs
          every distinct error fingerprint with its minimized schedule
          and every degraded trial, deduplicated across campaigns;
          without [repro_dir] the schedules are written to [DIR/repros]
          ({!run} only) *)
}

val default_config : config
(** What [racefuzzer campaign TARGET] runs: 4 domains, phase-1 seeds
    0–4, trial seeds 0–99, cutoff on, repro fuel 400, one shard,
    {!Supervisor.default_policy} and the engine's default [max_steps];
    everything else off. *)

val fuzz_pairs :
  ?log:Event_log.t ->
  ?stop:stop_switch ->
  config ->
  program:Fuzzer.program ->
  Site.Pair.t list ->
  Fuzzer.pair_result list * stats
(** Fuzz a fixed candidate set: {!run}'s phase 2 without phase 1.  It
    reads the trial fields of the configuration — [domains],
    [seeds_per_pair], [cutoff], [budget], [max_steps], [supervision],
    [chaos], [trial_deadline], [resume], [detector_budget], [mem_budget],
    [no_degrade], [proc] and [target] — and ignores the rest.  Results
    come back in input pair order.  [stop] is polled by workers and the
    wave loop for graceful interruption; [log] receives the journal.

    Both tiers run each trial through one body ({!Proc_pool.execute})
    and settle its {!Proc_pool.tresult} record the same way a resume
    settles a journaled one, so the analysis — and both fingerprints —
    are byte-identical to the in-process run, including under worker
    SIGKILL chaos and across a kill on one tier resumed on the other.
    If no worker completes its handshake the campaign silently degrades
    to the in-process pool at the same width; if the whole fleet dies
    past its respawn budget mid-wave, the remaining trials finish
    inline. *)

val run : ?log:Event_log.t -> ?stop:stop_switch -> config -> Fuzzer.program -> result
(** Whole-program campaign: phase 1 (sequential, like the paper's single
    observed execution) and a campaign over all potential pairs.
    With [cutoff = false] and no faults, the analysis equals
    [Fuzzer.phase1 ~seeds:phase1_seeds] followed by
    [Fuzzer.fuzz_pair ~seeds:seeds_per_pair] over each frontier pair
    exactly — see {!fingerprint}.  Phase 1 is deterministic and cheap, so a resumed run
    re-executes it and replays only phase-2 trials.

    Phase 1 {e streams} into phase 2 when it runs on one shard on an
    in-process pool of [domains >= 2] and no [budget] is set: each pair's
    trials join the first wave the moment the hybrid detector first
    reports the pair, seed-major among the pairs known so far, while
    phase 1 runs on the calling domain and occupies one of the [domains]
    slots until it returns.  Site ids still follow phase 1 alone
    ({!Rf_util.Site.with_priority}), the pair set is the final frontier,
    and results come back in the order an unstreamed run fuzzes them, so
    the analysis, both fingerprints and the report are unchanged; only
    the journal interleaves phase-1 lines with trial lines
    ({!Event_log}).  Under [budget], [proc], more than one
    [offline_shards] or one domain, phase 1 finishes first and then
    feeds the same scheduler.  A [Budget_stop] (or any exception)
    escaping a streamed phase 1 stops the pool, as an interrupt would,
    before it escapes [run].

    The repro and corpus directories, and any missing parents, are
    created before phase 1; one that cannot be created raises
    [Unix.Unix_error] out of [run] before any trial runs.  After
    aggregation the repro pass writes one minimized schedule per
    distinct error fingerprint (one [Repro_written] journal event each),
    sequentially after the trial queue drains, and never affects the
    analysis or its fingerprint; the corpus then absorbs the artifacts
    (a [Corpus_updated] event reports the delta). *)

(** {1 Determinism checking} *)

val fingerprint : Fuzzer.analysis -> string
(** Digest of every deterministic field of an analysis: potential pairs,
    per-pair trial outcomes (seed, race, exceptions, deadlock, steps,
    switches), aggregate counts, seeds and verdict sets — everything
    except wall-clock times.  Degradation is part of the verdict: a
    degraded trial (or degraded phase 1) adds its ladder level and
    eviction count, while non-degraded analyses fingerprint exactly as
    they did before resource governance existed.  Two analyses of the
    same program with the same seed lists fingerprint identically iff
    they agree. *)

val equal_verdicts : Fuzzer.analysis -> Fuzzer.analysis -> bool
(** [fingerprint a = fingerprint b]. *)

val confirmed_fingerprint : Fuzzer.analysis -> string
(** Digest of the {e confirmed} verdicts only: the real/error/deadlock
    pair sets plus the full trial records of every pair in them.  This is
    the [--static-filter] soundness gate — a filtered campaign must
    produce the same confirmed fingerprint as the unfiltered campaign,
    because a sound filter only skips pairs that confirm nothing. *)
