(** The parallel campaign orchestrator.

    {!Racefuzzer.Fuzzer.analyze} fuzzes candidate pairs strictly one after
    another.  The paper notes that "different invocations of RaceFuzzer are
    independent of each other [so] performance can be increased linearly
    with the number of processors or cores" — a campaign takes that
    globally: {e all} phase-2 (pair, seed) trials go into a single
    deterministic work queue drained by a pool of OCaml domains, instead of
    exploiting parallelism one pair at a time.

    {2 Deterministic aggregation}

    Each trial is a pure function of (pair, seed): the engine resets its
    domain-local counters per run, so a trial computes the same result on
    any domain at any time.  Aggregation sorts trials back into their
    logical (pair, trial-index) slots, so campaign results are
    {b bit-identical} for any domain count and any interleaving — and,
    with cutoff disabled, identical to sequential
    {!Racefuzzer.Fuzzer.analyze} on the same seed lists.

    {2 Early cutoff}

    With [~cutoff:true], once a pair is classified both {e real} and
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
    later resumed from its journal ([~resume]), replaying finished trials
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
      (** checksum-bad journal lines skipped while loading [~resume] *)
  s_repro_written : int;  (** minimized reproduction schedules emitted *)
  s_repro_failed : int;  (** witnesses whose minimization failed to reproduce *)
  s_repro_oracle_runs : int;  (** engine runs spent minimizing *)
  s_static : static_summary option;
      (** static pre-filter precision summary ({!run} with [~static]) *)
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
  repro : Repro.summary;  (** {!Repro.no_summary} without [~repro_dir] *)
}

val fuzz_pairs :
  ?domains:int ->
  ?seeds:int list ->
  ?cutoff:bool ->
  ?budget:int ->
  ?max_steps:int ->
  ?log:Event_log.t ->
  ?supervision:Supervisor.policy ->
  ?chaos:Chaos.plan ->
  ?trial_deadline:float ->
  ?resume:string ->
  ?stop:stop_switch ->
  ?detector_budget:int ->
  ?mem_budget:float ->
  ?no_degrade:bool ->
  ?proc:Proc_pool.spec ->
  program:Fuzzer.program ->
  Site.Pair.t list ->
  Fuzzer.pair_result list * stats
(** Fuzz a fixed candidate set.  [seeds] (default 100) is the per-pair
    base seed list; [budget] caps the total number of trials across all
    pairs (default [pairs * seeds]; trials beyond the base list use fresh
    seeds above the base maximum).  Results come back in input pair
    order.

    [supervision] (default {!Supervisor.default_policy}) sets the worker
    respawn budget, backoff curve and quarantine threshold.  [chaos]
    injects deterministic faults ({!Chaos}).  [trial_deadline] attaches a
    wall-clock watchdog to every trial (seconds; chaos plans can also
    carry one).  [resume] replays the [Trial_*] records of an existing
    journal instead of re-executing those trials; checksum-bad journal
    lines are skipped and counted in [s_resume_skipped].  [stop] is
    polled by workers and the wave loop for graceful interruption.

    [detector_budget] caps logical detector-state entries per trial;
    [mem_budget] (MB) arms the heap-watermark backstop at the engine's
    watchdog poll points.  Either gives each trial a fresh
    {!Rf_resource.Governor.t}: on a trip the trial degrades down the
    ladder and completes with [s_degraded]-counted, journal-labeled
    results; with [~no_degrade:true] it is cancelled instead (a
    [Trial_exhausted] record).  Degradation from the entry budget or from
    chaos budget trips is a pure function of (pair, seed), preserving
    cross-domain and resume determinism; the heap watermark is a
    physical backstop and is documented as not determinism-preserving.

    [proc] switches phase 2 to the multi-process tier ({!Proc_pool}):
    trials ship to crash-isolated worker processes instead of running on
    in-process domains, with heartbeat supervision, per-worker rlimits
    and backoff respawn.  Both tiers run each trial through one body
    ({!Proc_pool.execute}) and settle its {!Proc_pool.tresult} record the
    same way a resume settles a journaled one, so the analysis — and both
    fingerprints — are byte-identical to the in-process run, including
    under worker SIGKILL chaos and across a kill on one tier resumed on
    the other.  If no worker completes its handshake the campaign silently
    degrades to the in-process pool at the same width; if the whole fleet
    dies past its respawn budget mid-wave, the remaining trials finish
    inline. *)

val run :
  ?domains:int ->
  ?phase1_seeds:int list ->
  ?seeds_per_pair:int list ->
  ?cutoff:bool ->
  ?budget:int ->
  ?max_steps:int ->
  ?log:Event_log.t ->
  ?supervision:Supervisor.policy ->
  ?chaos:Chaos.plan ->
  ?trial_deadline:float ->
  ?resume:string ->
  ?stop:stop_switch ->
  ?detector_budget:int ->
  ?mem_budget:float ->
  ?no_degrade:bool ->
  ?proc:Proc_pool.spec ->
  ?repro_dir:string ->
  ?target:string ->
  ?repro_fuel:int ->
  ?static:Rf_static.Static.t ->
  ?static_filter:bool ->
  ?offline_detect:int ->
  ?corpus:string ->
  Fuzzer.program ->
  result
(** Whole-program campaign: phase 1 (sequential, like the paper's single
    observed execution) and a campaign over all potential pairs.
    With [~cutoff:false] (the default) and no faults, the analysis equals
    [Fuzzer.analyze ~phase1_seeds ~seeds_per_pair] exactly — see
    {!fingerprint}.  Phase 1 is deterministic and cheap, so a resumed run
    re-executes it and replays only phase-2 trials.

    Phase 1 {e streams} into phase 2 when it runs on one shard on an
    in-process pool of [domains >= 2] and no [budget] is set: each pair's trials
    join the first wave the moment the hybrid detector first reports the
    pair, seed-major among the pairs known so far, while phase 1 runs on
    the calling domain and occupies one of the [domains] slots until it
    returns.  Site ids still follow phase 1 alone
    ({!Rf_util.Site.with_priority}), the pair set is the final frontier,
    and results come back in the order an unstreamed run fuzzes them, so
    the analysis, both fingerprints and the report are unchanged; only
    the journal interleaves phase-1 lines with trial lines
    ({!Event_log}).  Under [budget], [proc], more than one
    [offline_detect] shard or one domain, phase 1 finishes first and
    then feeds the same scheduler.  A [Budget_stop] (or any
    exception) escaping a streamed phase 1 stops the pool, as an
    interrupt would, before it escapes [run].

    [repro_dir] enables the {!Repro} pass: after aggregation, a
    minimized reproduction schedule is written per distinct error
    fingerprint (one [Repro_written] journal event each).  The repro and
    [corpus] directories, and any missing parents, are
    created before phase 1; one that cannot be created raises
    [Unix.Unix_error] out of [run] before any trial runs.  [target]
    names the program inside the artifacts so [replay]/[shrink] can
    resolve it later; [repro_fuel] bounds minimization work per artifact
    ({!Repro.write_all}).  The pass runs sequentially after the trial
    queue drains and never affects the analysis or its fingerprint.

    [detector_budget]/[mem_budget]/[no_degrade] govern resources as in
    {!fuzz_pairs}; in addition phase 1 — where the detector (and hence
    the OOM risk) actually lives — runs under a governor shared across
    the phase-1 seeds, and its final ladder level is reported in
    [s_p1_level] and the [Phase1_finished] journal record.  Under
    [~no_degrade:true] a phase-1 budget trip raises
    {!Rf_resource.Governor.Budget_stop} out of [run].

    [static] attaches a {!Rf_static.Static} model of the program: the
    phase-1 frontier is classified (a [Static_classified] journal record
    and [s_static] summary), surviving pairs are fuzzed Likely-first,
    and with [~static_filter:true] pairs proved [Impossible] are skipped
    before any trial runs (one [Pair_filtered] record each, and the
    skipped pairs land in [analysis.a_filtered]).  Filtering composes
    with resume: the surviving pair list is deterministic, so a filtered
    campaign's journal replays exactly like any other.

    [offline_detect] detects phase 1 on that many re-executions of the
    phase-1 seeds ({!Fuzzer.detect_mode}[.Recorded]), each shard's
    detector owning a slice of the memory locations.  The candidate pair
    set — and therefore the whole analysis and both fingerprints — is
    identical to inline phase 1; one shard is inline phase 1.  A
    governed phase 1 runs its shards one after another.

    [corpus] absorbs this campaign's durable artifacts into a
    persistent cross-campaign store ({!Corpus}): every distinct error
    fingerprint with its minimized schedule and every degraded-trial
    record.  Known entries dedup ([e_seen] bumps),
    so consecutive campaigns converge to one entry per distinct
    artifact; a [Corpus_updated] event reports the delta.  Without an
    explicit [repro_dir], reproduction artifacts are written inside
    the corpus ([DIR/repros]). *)

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
