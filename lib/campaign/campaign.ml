open Rf_util
module Fuzzer = Racefuzzer.Fuzzer
module Algo = Racefuzzer.Algo
module Outcome = Rf_runtime.Outcome
module Engine = Rf_runtime.Engine
module Governor = Rf_resource.Governor
module Static = Rf_static.Static

(* ------------------------------------------------------------------ *)
(* Cooperative stop switch.  An atomic flag so it is safe to flip from a
   signal handler (SIGINT) or from any worker domain (chaos stop_after). *)

type stop_switch = bool Atomic.t

let stop_switch () = Atomic.make false
let request_stop s = Atomic.set s true
let stop_requested s = Atomic.get s

type stats = {
  s_pairs : int;
  s_resolved : int;
  s_trials : int;
  s_cancelled : int;
  s_discarded : int;
  s_waves : int;
  s_wall : float;
  s_campaign_wall : float;
  s_phase1_wall : float;
  s_throughput : float;
  s_domains : int;
  s_domain_trials : int array;
  s_domain_busy : float array;
  (* fault-tolerance accounting *)
  s_exhausted : int;
  s_crashes : int;
  s_quarantined : int;
  s_q_skipped : int;
  s_replayed : int;
  s_worker_crashes : int;
  s_worker_respawns : int;
  s_worker_gave_up : int;
  s_proc_active : int;
  s_interrupted : bool;
  (* resource governance *)
  s_degraded : int;
  s_p1_level : string option;
  s_resume_skipped : int;
  (* reproduction artifacts ([repro_dir]) *)
  s_repro_written : int;
  s_repro_failed : int;
  s_repro_oracle_runs : int;
  (* static pre-filter ([static]) *)
  s_static : static_summary option;
}

(** Accounting for one static pre-filter pass: the syntactic candidate
    universe, the phase-1 frontier classification, and how many frontier
    pairs [--static-filter] actually skipped (each saving a full per-pair
    trial budget). *)
and static_summary = {
  st_universe : int;  (** same-location site pairs before any execution *)
  st_universe_impossible : int;  (** universe pairs refuted statically *)
  st_frontier : int;  (** phase-1 candidate pairs *)
  st_likely : int;  (** frontier pairs classified Likely *)
  st_unknown : int;
  st_impossible : int;
  st_filtered : int;  (** frontier pairs skipped (0 unless filtering on) *)
  st_wall : float;  (** classification time, seconds *)
}

type result = {
  analysis : Fuzzer.analysis;
  stats : stats;
  repro : Repro.summary;
}

type config = {
  domains : int;
  phase1_seeds : int list;
  seeds_per_pair : int list;
  cutoff : bool;
  budget : int option;
  max_steps : int;
  supervision : Supervisor.policy;
  chaos : Chaos.plan option;
  trial_deadline : float option;
  resume : string option;
  detector_budget : int option;
  mem_budget : float option;
  no_degrade : bool;
  proc : Proc_pool.spec option;
  repro_dir : string option;
  target : string;
  repro_fuel : int;
  static : Static.t option;
  static_filter : bool;
  offline_shards : int;
  corpus : string option;
}

let default_config =
  {
    domains = 4;
    phase1_seeds = List.init 5 Fun.id;
    seeds_per_pair = List.init 100 Fun.id;
    cutoff = true;
    budget = None;
    max_steps = Engine.default_config.max_steps;
    supervision = Supervisor.default_policy;
    chaos = None;
    trial_deadline = None;
    resume = None;
    detector_budget = None;
    mem_budget = None;
    no_degrade = false;
    proc = None;
    repro_dir = None;
    target = "";
    repro_fuel = 400;
    static = None;
    static_filter = false;
    offline_shards = 1;
    corpus = None;
  }

(* The one trial configuration of both tiers: the in-process tier runs
   [Proc_pool.execute] with it, worker processes receive it in their
   init frame and resolve [i_target].  Each trial gets a fresh governor
   ([Fuzzer.governance]), which keeps degradation a pure function of
   (pair, seed), never of which domain ran what before. *)
let trial_init c =
  {
    Proc_pool.i_target = c.target;
    i_max_steps = c.max_steps;
    i_postpone = None;
    i_detector_budget = c.detector_budget;
    i_mem_budget = c.mem_budget;
    i_no_degrade = c.no_degrade;
    i_trial_wall =
      (match c.trial_deadline with
      | Some _ as w -> w
      | None -> Option.bind c.chaos (fun p -> p.Chaos.c_trial_deadline));
  }

(* ------------------------------------------------------------------ *)
(* Per-pair campaign state.

   [ps_first_race]/[ps_first_error] are minima over *executed* trials.
   Because a trial at index i is only ever cancelled when some already-
   known resolution bound k < i exists — and the bound can only shrink as
   more trials finish — every index at or below the final bound is
   guaranteed to execute.  Hence the final minima equal the minima a
   sequential run would observe, and the truncation point

     k* = max (first race index, first error index)

   is a pure function of the seed list: deterministic for any domain
   count and any interleaving.

   Quarantine reuses the same fixpoint argument with a different bound:
   once a pair has crashed the harness [quarantine_crashes] times, its
   bound is the Nth-smallest crash index — also monotone under new
   information, so also deterministic whenever the crashes themselves are
   (which injected chaos crashes are by construction, being pure functions
   of (pair, seed)). *)

type pair_state = {
  ps_pair : Site.Pair.t;
  ps_label : string;
  mutable ps_granted : int;  (** trial indices 0..granted-1 exist *)
  mutable ps_queued : int;  (** indices already pushed to a wave queue *)
  mutable ps_slots : Fuzzer.trial option array;  (** length >= granted *)
  mutable ps_first_race : int;  (** max_int = none yet *)
  mutable ps_first_error : int;
  mutable ps_cancelled : int;  (** trials skipped past the cutoff bound *)
  mutable ps_settled : bool;  (** savings already returned to the pool *)
  mutable ps_crash_idxs : int list;  (** indices whose trial crashed the harness *)
  mutable ps_q_skipped : int;  (** trials skipped past the quarantine bound *)
  mutable ps_exhausted : int;  (** trials cancelled by the watchdog *)
}

let resolution ps =
  if ps.ps_first_race = max_int || ps.ps_first_error = max_int then None
  else Some (max ps.ps_first_race ps.ps_first_error)

let quarantine_bound ~qn ps =
  if qn <= 0 then None
  else
    let crashes = List.length ps.ps_crash_idxs in
    if crashes < qn then None
    else Some (List.nth (List.sort Int.compare ps.ps_crash_idxs) (qn - 1))

(* The index past which this pair runs no more trials: cutoff resolution,
   quarantine, or both (whichever bites first).  Quarantine applies even
   with cutoff disabled — it is a safety boundary, not an optimisation. *)
let skip_bound ~cutoff ~qn ps =
  let r = if cutoff then resolution ps else None in
  let q = quarantine_bound ~qn ps in
  match (r, q) with
  | None, None -> None
  | (Some _ as b), None | None, (Some _ as b) -> b
  | Some a, Some b -> Some (min a b)

let grow ps wanted =
  let len = Array.length ps.ps_slots in
  if wanted > len then begin
    let slots = Array.make (max wanted (2 * len)) None in
    Array.blit ps.ps_slots 0 slots 0 len;
    ps.ps_slots <- slots
  end

(* ------------------------------------------------------------------ *)
(* Resume: a journal's trial records, keyed by (pair label, seed), as the
   same [Proc_pool.tresult] records executed trials produce.  A resumed
   campaign recomputes its entire schedule from scratch; whenever it
   reaches a trial the journal already settled, it settles the record
   instead of executing.  Because trials are pure in (pair, seed), the
   resumed control flow — resolutions, quarantines, budget waves —
   matches the uninterrupted run's exactly. *)

(* Rebuild the journaled degradation summary.  Only the fields that feed
   the fingerprint and the report (level, trigger, evicted) are
   journaled; the run-local counters (trips, entries, peak) are not, and
   aggregation never reads them. *)
let snapshot_of_record ~degraded ~level ~trigger ~evicted =
  if not degraded then None
  else
    Some
      {
        Governor.g_level =
          Option.value ~default:Governor.Sampled (Governor.level_of_string level);
        g_trigger = Governor.trigger_of_string trigger;
        g_trips = 1;
        g_entries = 0;
        g_peak = 0;
        g_evicted = evicted;
      }

let load_resume path =
  let tbl = Hashtbl.create 512 in
  let events, skipped = Event_log.load_result path in
  let resumable =
    match events with
    | Event_log.Journal_opened { schema } :: _ -> schema = Event_log.schema_version
    | _ -> false  (* old journal: observability only, re-run everything *)
  in
  if resumable then
    List.iter
      (function
        | Event_log.Trial_finished
            {
              pair;
              seed;
              race;
              deadlock;
              steps;
              switches;
              exns;
              wall;
              degraded;
              level;
              trigger;
              evicted;
              _;
            } ->
            Hashtbl.replace tbl (pair, seed)
              (Proc_pool.T_finished
                 {
                   t_race = race;
                   t_deadlock = deadlock;
                   t_steps = steps;
                   t_switches = switches;
                   t_exns = exns;
                   t_wall = wall;
                   t_degraded = degraded;
                   t_level = level;
                   t_trigger = trigger;
                   t_evicted = evicted;
                 })
        | Event_log.Trial_crashed { pair; seed; exn_; backtrace; _ } ->
            Hashtbl.replace tbl (pair, seed)
              (Proc_pool.T_crashed { t_exn = exn_; t_backtrace = backtrace })
        | Event_log.Trial_exhausted { pair; seed; reason; steps; wall; _ } ->
            Hashtbl.replace tbl (pair, seed)
              (Proc_pool.T_exhausted
                 { t_reason = reason; t_steps = steps; t_wall = wall })
        | _ -> ())
      events;
  (tbl, skipped)

(* ------------------------------------------------------------------ *)
(* The trial scheduler.  [produce admit] supplies the candidate pairs,
   calling [admit] once per pair, and returns with the order the pairs
   are fuzzed in.  Wave 0 closes when [produce] returns, and from then on
   — budget grants, reallocation waves, aggregation and the results —
   the pairs are in that order, whatever order they arrived in.

   Without [~stream], every pair is admitted before the first trial
   starts.  With it, [produce] runs in slot 0 of the first wave, on the
   calling domain, and the other slots start with the first pair: that
   is how phase 1 feeds its pairs into phase 2 as the detector finds
   them.  Slot 0 turns to trials once [produce] returns, so no more than
   [domains] domains step engines at once.  Streaming needs no [budget]
   — the initial grant divides the budget by the final pair count — and
   at least two slots. *)

let schedule ~log ~stop c ~stream ~(program : Fuzzer.program) produce =
  let { cutoff; budget; chaos; proc; _ } = c in
  let base_seeds = Array.of_list c.seeds_per_pair in
  let nbase = Array.length base_seeds in
  (* Extra trials past the base list draw fresh seeds above its maximum,
     so reallocated budget never re-runs a base seed. *)
  let extra_seed_base = 1 + Array.fold_left max 0 base_seeds in
  let seed_of idx = if idx < nbase then base_seeds.(idx) else extra_seed_base + (idx - nbase) in
  (* Set when [produce] raises: the pool stops as if interrupted, and the
     exception then escapes [schedule]. *)
  let aborted = stop_switch () in
  let halted () = stop_requested stop || stop_requested aborted in
  let qn = c.supervision.Supervisor.quarantine_crashes in
  let resume_tbl, resume_skipped =
    match c.resume with
    | Some path -> load_resume path
    | None -> (Hashtbl.create 1, 0)
  in
  let chaos_state = Option.map (fun plan -> (plan, Chaos.state ())) chaos in
  let init = trial_init c in
  let ndomains =
    match proc with
    | Some sp -> max 1 sp.Proc_pool.sp_workers
    | None -> max 1 c.domains
  in
  let mutex = Mutex.create () in
  (* ---------------------------------------------------------------- *)
  (* Admission.  A task is (trial index, pair); queues rank it by its
     index, so trial i of every pair admitted so far runs before trial
     i+1 of any.  Without a budget every pair's grant is its base list,
     known on arrival, so its trials join wave 0 at once.  Under a budget
     the grants wait for the final pair count ([close_input]).        *)
  let wave0 = Work_queue.create_open ~rank:fst () in
  let admitted = ref [] in
  let on_admit = ref ignore in
  let push_granted queue ps =
    for idx = ps.ps_queued to ps.ps_granted - 1 do
      Work_queue.push queue (idx, ps)
    done;
    ps.ps_queued <- ps.ps_granted
  in
  let admit pair =
    let ps =
      {
        ps_pair = pair;
        ps_label = Site.Pair.to_string pair;
        ps_granted = (if budget = None then nbase else 0);
        ps_queued = 0;
        ps_slots = Array.make (max nbase 1) None;
        ps_first_race = max_int;
        ps_first_error = max_int;
        ps_cancelled = 0;
        ps_settled = false;
        ps_crash_idxs = [];
        ps_q_skipped = 0;
        ps_exhausted = 0;
      }
    in
    Mutex.protect mutex (fun () -> admitted := ps :: !admitted);
    push_granted wave0 ps;
    !on_admit ()
  in
  let states = ref [||] in
  (* Budget left to reallocate: the initial grant is the first
     [budget] tasks in seed-major order, i.e. pair i receives q + 1
     trials if i < r else q, where budget = q * pairs + r — capped at the
     base list length. *)
  let pool = ref 0 in
  let close_input order =
    let rank = Hashtbl.create 64 in
    let key p = (Site.id (Site.Pair.fst p), Site.id (Site.Pair.snd p)) in
    List.iteri (fun i p -> Hashtbl.replace rank (key p) i) order;
    let rank_of ps = Option.value ~default:max_int (Hashtbl.find_opt rank (key ps.ps_pair)) in
    let st = List.rev (Mutex.protect mutex (fun () -> !admitted)) in
    let st = Array.of_list (List.stable_sort (fun a b -> Int.compare (rank_of a) (rank_of b)) st) in
    states := st;
    (match budget with
    | None -> ()
    | Some b when Array.length st > 0 ->
        let b = max 0 b and n = Array.length st in
        pool := b;
        let q = b / n and r = b mod n in
        Array.iteri
          (fun i ps ->
            ps.ps_granted <- min nbase (q + if i < r then 1 else 0);
            pool := !pool - ps.ps_granted;
            push_granted wave0 ps)
          st
    | Some _ -> ());
    (* a streamed wave 0 learns its size only now, after its first trials *)
    let tasks = Work_queue.total wave0 in
    if stream && tasks > 0 then
      Event_log.emit log (Event_log.Wave_started { wave = 0; tasks });
    Work_queue.close_input wave0
  in
  (* A streamed [produce] runs once, in worker slot 0; its outcome is
     read after the wave.  An exception must not reach the supervisor,
     which would count it as a worker crash. *)
  let produced = ref None in
  let produce_once =
    let started = Atomic.make false in
    fun () ->
      if not (Atomic.exchange started true) then
        match produce admit with
        | x, order ->
            produced := Some (Ok x);
            close_input order
        | exception e ->
            produced := Some (Error (e, Printexc.get_raw_backtrace ()));
            request_stop aborted;
            close_input []
  in
  let domain_trials = Array.make ndomains 0 in
  let domain_busy = Array.make ndomains 0.0 in
  let executed_n = Atomic.make 0 in
  let replayed_n = Atomic.make 0 in
  let degraded_n = Atomic.make 0 in
  let worker_crashes_n = Atomic.make 0 in
  let worker_respawns_n = Atomic.make 0 in
  let worker_gave_up_n = Atomic.make 0 in
  let interrupted_remaining = ref 0 in
  (* -------------------------------------------------------------- *)
  (* The one merge: every trial result — executed on a domain, returned
     by a worker process or replayed from the journal — settles here, so
     all three feed resolution/quarantine state and the journal
     identically.                                                      *)
  let settle d ps idx seed (r : Proc_pool.tresult) =
    match r with
    | Proc_pool.T_finished f ->
        let degraded =
          snapshot_of_record ~degraded:f.t_degraded ~level:f.t_level
            ~trigger:f.t_trigger ~evicted:f.t_evicted
        in
        let tr =
          Fuzzer.trial_of_record ~degraded ~pair:ps.ps_pair ~seed ~race:f.t_race
            ~exns:f.t_exns ~deadlock:f.t_deadlock ~steps:f.t_steps
            ~switches:f.t_switches ~wall:f.t_wall
        in
        let error = f.t_race && f.t_exns > 0 in
        (* The cut is journaled when the pair first resolves and again
           whenever a late-finishing earlier trial lowers it, so the last
           [Pair_resolved] of a pair is always its final cut. *)
        let cut =
          Mutex.protect mutex (fun () ->
              ps.ps_slots.(idx) <- Some tr;
              let before = resolution ps in
              if f.t_race && idx < ps.ps_first_race then ps.ps_first_race <- idx;
              if error && idx < ps.ps_first_error then ps.ps_first_error <- idx;
              match (before, resolution ps) with
              | None, (Some _ as k) -> k
              | Some b, (Some k' as k) when k' < b -> k
              | _ -> None)
        in
        if f.t_degraded then Atomic.incr degraded_n;
        Event_log.emit log
          (Event_log.Trial_finished
             {
               pair = ps.ps_label;
               seed;
               domain = d;
               race = f.t_race;
               error;
               deadlock = f.t_deadlock;
               steps = f.t_steps;
               switches = f.t_switches;
               exns = f.t_exns;
               wall = f.t_wall;
               degraded = f.t_degraded;
               level = f.t_level;
               trigger = f.t_trigger;
               evicted = f.t_evicted;
             });
        Option.iter
          (fun k ->
            Event_log.emit log
              (Event_log.Pair_resolved { pair = ps.ps_label; at_trial = k }))
          cut
    | Proc_pool.T_crashed { t_exn; t_backtrace } ->
        (* Like the cut: journaled when the pair first reaches the crash
           threshold and again whenever a late-finishing lower crash
           lowers the bound, so the last [Pair_quarantined] of a pair is
           always its final bound. *)
        let quarantined =
          Mutex.protect mutex (fun () ->
              let before = quarantine_bound ~qn ps in
              ps.ps_crash_idxs <- idx :: ps.ps_crash_idxs;
              match (before, quarantine_bound ~qn ps) with
              | None, Some k -> Some (k, List.length ps.ps_crash_idxs)
              | Some b, Some k when k < b -> Some (k, List.length ps.ps_crash_idxs)
              | _ -> None)
        in
        Event_log.emit log
          (Event_log.Trial_crashed
             {
               pair = ps.ps_label;
               seed;
               domain = d;
               exn_ = t_exn;
               backtrace = t_backtrace;
             });
        Option.iter
          (fun (k, crashes) ->
            Event_log.emit log
              (Event_log.Pair_quarantined
                 { pair = ps.ps_label; crashes; at_trial = k }))
          quarantined
    | Proc_pool.T_exhausted { t_reason; t_steps; t_wall } ->
        Mutex.protect mutex (fun () -> ps.ps_exhausted <- ps.ps_exhausted + 1);
        Event_log.emit log
          (Event_log.Trial_exhausted
             {
               pair = ps.ps_label;
               seed;
               domain = d;
               reason = t_reason;
               steps = t_steps;
               wall = t_wall;
             })
  in
  (* Count one executed trial against its domain or worker slot; the
     chaos stop-after fault keys on the running total. *)
  let executed d busy =
    domain_trials.(d) <- domain_trials.(d) + 1;
    domain_busy.(d) <- domain_busy.(d) +. busy;
    let n = Atomic.fetch_and_add executed_n 1 + 1 in
    match chaos with
    | Some { Chaos.c_stop_after = Some m; _ } when n >= m -> request_stop stop
    | _ -> ()
  in
  (* The faults that change a trial's result, pure functions of
     (chaos seed, pair, seed), so both tiers inject the same ones.  The
     process dispatcher adds its transport faults on top. *)
  let assignment ~id ps seed =
    let label = ps.ps_label in
    let on fault =
      match chaos with Some plan -> fault plan ~label ~seed | None -> false
    in
    {
      Proc_pool.a_id = id;
      a_pair = ps.ps_pair;
      a_seed = seed;
      a_crash = on Chaos.crashes;
      a_stall =
        (match chaos with
        | Some plan when Chaos.stalls plan ~label ~seed -> plan.Chaos.c_stall_seconds
        | _ -> 0.0);
      a_tripped = on Chaos.trips_budget;
      a_die = false;
      a_torn = false;
      a_hang = false;
    }
  in
  (* Journal-replay and skip-check, shared verbatim by the in-process
     worker loop (which applies them at pop time) and the multi-process
     dispatcher (which applies them at dispatch time).  Both placements
     are sound by the same argument: the skip bound only ever shrinks, so
     anything skipped under an early bound would also be truncated by the
     final one.  A journaled trial is replayed even past the current
     bound: it ran in the journaled run, where aggregation discarded it
     just as it does here, and replaying it keeps the resumed run's
     accounting that run's whatever order the replays settle in. *)
  let check_skip ps idx =
    Mutex.protect mutex (fun () ->
        match skip_bound ~cutoff ~qn ps with
        | Some k when idx > k ->
            (match (if cutoff then resolution ps else None) with
            | Some r when idx > r -> ps.ps_cancelled <- ps.ps_cancelled + 1
            | _ -> ps.ps_q_skipped <- ps.ps_q_skipped + 1);
            true
        | _ -> false)
  in
  let try_resume d ps idx seed =
    match Hashtbl.find_opt resume_tbl (ps.ps_label, seed) with
    | Some r ->
        Atomic.incr replayed_n;
        settle d ps idx seed r;
        true
    | None -> false
  in
  (* One in-process task: replay from the journal, skip-check, or
     execute through the trial body worker processes run too. *)
  let process d (idx, ps) =
    let seed = seed_of idx in
    if not (try_resume d ps idx seed || check_skip ps idx) then begin
      Event_log.emit log
        (Event_log.Trial_started { pair = ps.ps_label; seed; domain = d });
      let w0 = Unix.gettimeofday () in
      let r = Proc_pool.execute init ~program (assignment ~id:0 ps seed) in
      executed d (Unix.gettimeofday () -. w0);
      settle d ps idx seed r
    end
  in
  let run_wave queue =
    (* A streamed wave 0 sizes the pool before its tasks are known. *)
    let producing = stream && queue == wave0 in
    let n =
      if producing then ndomains
      else max 1 (min ndomains (Work_queue.remaining queue))
    in
    let inflight = Array.make n None in
    let worker ~allow_death ~domain =
      let rec loop () =
        if halted () then ()
        else
          match Work_queue.pop queue with
          | None -> ()
          | Some task ->
              inflight.(domain) <- Some task;
              (match chaos_state with
              | Some (plan, st) when allow_death && Chaos.kills_worker plan st ->
                  (* The in-flight task is recorded; the supervisor's
                     on_crash hook requeues it. *)
                  raise Chaos.Injected_death
              | _ -> ());
              process domain task;
              inflight.(domain) <- None;
              loop ()
      in
      loop ()
    in
    let on_crash ~domain ~attempt e =
      (match inflight.(domain) with
      | Some task ->
          inflight.(domain) <- None;
          Work_queue.requeue queue task
      | None -> ());
      Atomic.incr worker_crashes_n;
      Event_log.emit log
        (Event_log.Worker_crashed { domain; attempt; exn_ = Printexc.to_string e })
    in
    let on_respawn ~domain ~attempt ~backoff =
      Atomic.incr worker_respawns_n;
      Event_log.emit log (Event_log.Worker_respawned { domain; attempt; backoff })
    in
    let on_give_up ~domain =
      Atomic.incr worker_gave_up_n;
      Event_log.emit log (Event_log.Worker_gave_up { domain })
    in
    (* Slots [first..first+domains-1] under one supervisor. *)
    let supervise ?(first = 0) ~domains body =
      let (_ : Supervisor.outcome) =
        Supervisor.supervise ~policy:c.supervision
          ~on_crash:(fun ~domain -> on_crash ~domain:(first + domain))
          ~on_respawn:(fun ~domain -> on_respawn ~domain:(first + domain))
          ~on_give_up:(fun ~domain -> on_give_up ~domain:(first + domain))
          ~domains
          (fun ~domain -> body ~domain:(first + domain))
      in
      ()
    in
    if producing then begin
      (* Phase 1 runs in slot 0, here, before its trials: chaos deaths,
         which strike after a pop, never hit it.  The other slots start
         with the first pair, since an idle domain is not free: it joins
         every minor collection phase 1 makes. *)
      let others = ref None in
      (on_admit :=
         fun () ->
           if Option.is_none !others then
             others :=
               Some
                 (Domain.spawn (fun () ->
                      supervise ~first:1 ~domains:(n - 1)
                        (worker ~allow_death:true))));
      supervise ~domains:1 (fun ~domain ->
          produce_once ();
          worker ~allow_death:true ~domain);
      on_admit := ignore;
      Option.iter Domain.join !others
    end
    else supervise ~domains:n (worker ~allow_death:true);
    (* If every surviving worker exited but slots gave up mid-queue, finish
       the stragglers inline, immune to injected deaths. *)
    if (not (halted ())) && Work_queue.remaining queue > 0 then
      worker ~allow_death:false ~domain:0;
    if halted () then
      interrupted_remaining :=
        !interrupted_remaining + List.length (Work_queue.drain queue)
  in
  (* ---------------------------------------------------------------- *)
  (* Multi-process wave driver.  Skip-checks and journal replays happen
     at dispatch time (see [check_skip]); only real executions ship to a
     worker process.  The assignment counter is campaign-global and
     1-based — chaos process faults ([c_kill_assignment] etc.) key on it,
     and a requeued task gets a fresh number, so a fault fires once
     rather than chasing its own retry forever. *)
  let assign_ctr = ref 0 in
  let proc_inflight : (int, int * pair_state) Hashtbl.t = Hashtbl.create 64 in
  let run_wave_proc pool tasks =
    let pending = Queue.create () in
    List.iter (fun t -> Queue.add t pending) tasks;
    (* Pop until a task actually ships: skipped and replayed tasks are
       satisfied supervisor-side and consume no worker. *)
    let rec dispatch worker =
      match Queue.take_opt pending with
      | None -> ()
      | Some (idx, ps) ->
          let seed = seed_of idx in
          if try_resume worker ps idx seed || check_skip ps idx then
            dispatch worker
          else begin
            incr assign_ctr;
            let id = !assign_ctr in
            let a = assignment ~id ps seed in
            let a =
              match chaos_state with
              | None -> a
              | Some (plan, st) ->
                  let at = function Some n -> n = id | None -> false in
                  {
                    a with
                    Proc_pool.a_die =
                      Chaos.kills_worker plan st
                      || at plan.Chaos.c_kill_assignment;
                    a_torn = at plan.Chaos.c_torn_frame;
                    a_hang = at plan.Chaos.c_hang_assignment;
                  }
            in
            Event_log.emit log
              (Event_log.Trial_started
                 { pair = ps.ps_label; seed; domain = worker });
            Hashtbl.replace proc_inflight id (idx, ps);
            Proc_pool.assign pool ~worker a
          end
    in
    let handle_event = function
      | Proc_pool.Ev_ready { ev_worker; ev_pid } ->
          Event_log.emit log
            (Event_log.Worker_spawned { worker = ev_worker; pid = ev_pid })
      | Proc_pool.Ev_result { ev_worker; ev_id; ev_result } -> (
          match Hashtbl.find_opt proc_inflight ev_id with
          | None -> ()  (* late result from a worker already declared dead *)
          | Some (idx, ps) ->
              Hashtbl.remove proc_inflight ev_id;
              executed ev_worker
                (match ev_result with
                | Proc_pool.T_finished { t_wall; _ }
                | Proc_pool.T_exhausted { t_wall; _ } ->
                    t_wall
                | Proc_pool.T_crashed _ -> 0.0);
              settle ev_worker ps idx (seed_of idx) ev_result)
      | Proc_pool.Ev_died
          { ev_worker; ev_pid; ev_in_flight; ev_reason; ev_killed; _ } ->
          (match ev_in_flight with
          | Some id -> (
              match Hashtbl.find_opt proc_inflight id with
              | Some task ->
                  Hashtbl.remove proc_inflight id;
                  Queue.add task pending
              | None -> ())
          | None -> ());
          Atomic.incr worker_crashes_n;
          if ev_killed then
            Event_log.emit log
              (Event_log.Worker_killed
                 { worker = ev_worker; pid = ev_pid; reason = ev_reason });
          Event_log.emit log
            (Event_log.Worker_crashed
               { domain = ev_worker; attempt = 0; exn_ = ev_reason })
      | Proc_pool.Ev_respawned { ev_worker; ev_pid; ev_attempt; ev_backoff } ->
          Atomic.incr worker_respawns_n;
          Event_log.emit log
            (Event_log.Worker_spawned { worker = ev_worker; pid = ev_pid });
          Event_log.emit log
            (Event_log.Worker_respawned
               { domain = ev_worker; attempt = ev_attempt; backoff = ev_backoff })
      | Proc_pool.Ev_gave_up w ->
          Atomic.incr worker_gave_up_n;
          Event_log.emit log (Event_log.Worker_gave_up { domain = w })
    in
    let finished () =
      Queue.is_empty pending && Hashtbl.length proc_inflight = 0
    in
    while
      (not (finished ()))
      && (not (halted ()))
      && not (Proc_pool.gone pool)
    do
      List.iter
        (fun w -> if not (Queue.is_empty pending) then dispatch w)
        (Proc_pool.idle_workers pool);
      if not (finished ()) then
        List.iter handle_event (Proc_pool.poll pool ~timeout:0.05)
    done;
    if halted () then begin
      interrupted_remaining :=
        !interrupted_remaining + Queue.length pending
        + Hashtbl.length proc_inflight;
      Queue.clear pending;
      Hashtbl.reset proc_inflight
    end
    else if Proc_pool.gone pool then begin
      (* The whole fleet died past its respawn budget: requeue whatever
         was in flight and finish the wave inline, immune to process
         faults — the same degradation the in-process pool applies when
         every domain slot gives up. *)
      Hashtbl.iter (fun _ task -> Queue.add task pending) proc_inflight;
      Hashtbl.reset proc_inflight;
      let rec drain () =
        if halted () then
          interrupted_remaining :=
            !interrupted_remaining + Queue.length pending
        else
          match Queue.take_opt pending with
          | None -> ()
          | Some task ->
              process 0 task;
              drain ()
      in
      drain ()
    end
  in
  (* Unstreamed, phase 1 runs to the end before the campaign starts, and
     its failure escapes at once. *)
  let reraise_failure () =
    match !produced with
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | _ -> ()
  in
  if not stream then begin
    produce_once ();
    reraise_failure ()
  end;
  (* Phase 2's wall: a streamed phase 1 runs inside it. *)
  let t0 = Unix.gettimeofday () in
  (* Multi-process tier: spawn the worker fleet and gate on the init
     handshake.  If no worker ever comes up (exec failure, target
     unresolvable in the child, impossible rlimits) the campaign degrades
     to the in-process domain pool at the same parallel width — results
     are identical either way, only the isolation boundary moves. *)
  let ppool =
    match proc with
    | Some sp when Work_queue.total wave0 > 0 ->
        let p = Proc_pool.create sp ~init in
        if Proc_pool.await_ready p ~timeout:15.0 then Some p
        else begin
          Proc_pool.kill_all p;
          None
        end
    | _ -> None
  in
  (* Fleet width actually achieved, for status reporting: a requested
     proc tier that degraded to in-process shows up as 0 live workers. *)
  let proc_active = match ppool with Some p -> Proc_pool.alive p | None -> 0 in
  Event_log.emit log
    (Event_log.Campaign_started
       { domains = ndomains; base_trials = nbase; budget; cutoff });
  (* Journal what --resume reused, and above all how many torn lines it
     skipped: a long-lived resume chain must not eat corruption silently
     (the final report repeats the warning from s_resume_skipped). *)
  if c.resume <> None then
    Event_log.emit log
      (Event_log.Resume_loaded
         { entries = Hashtbl.length resume_tbl; skipped = resume_skipped });
  (* Wave loop.  Each wave queues every granted-but-unqueued trial in
     seed-major order (trial 0 of every pair, then trial 1, ...) so all
     pairs make progress toward their resolution points together.  Between
     waves — a deterministic barrier — resolved and quarantined pairs
     return their unused budget to the pool, which is re-granted
     round-robin to unresolved pairs.  The refund is *logical*:
     granted - (bound + 1), a pure function of the bound, never of how
     many trials some worker happened to skip first — so reallocation is
     as deterministic as the bounds themselves.  Wave 0 is the admission
     queue; a streamed one ends once its input is closed and drained. *)
  let waves = ref 0 in
  let rec wave queue =
    let tasks = Work_queue.total queue in
    if tasks > 0 && not (stream && queue == wave0) then
      Event_log.emit log (Event_log.Wave_started { wave = !waves; tasks });
    if stream || tasks > 0 then begin
      (match ppool with
      | Some pool -> run_wave_proc pool (Work_queue.drain queue)
      | None -> run_wave queue);
      if Work_queue.total queue > 0 then incr waves
    end;
    if not (halted ()) then begin
      (* settle pairs that hit a bound: unused grants refill the pool *)
      Array.iter
        (fun ps ->
          match skip_bound ~cutoff ~qn ps with
          | Some b when not ps.ps_settled ->
              ps.ps_settled <- true;
              pool := !pool + max 0 (ps.ps_granted - (b + 1))
          | _ -> ())
        !states;
      let unresolved =
        Array.to_list !states |> List.filter (fun ps -> not ps.ps_settled)
      in
      if cutoff && !pool > 0 && unresolved <> [] then begin
        (* round-robin reallocation, at most one base-list worth per pair
           per wave so a single unresolved pair cannot absorb a huge pool
           in one indivisible chunk *)
        let granted_now = Array.make (List.length unresolved) 0 in
        let progress = ref true in
        while !pool > 0 && !progress do
          progress := false;
          List.iteri
            (fun i ps ->
              if !pool > 0 && granted_now.(i) < nbase then begin
                grow ps (ps.ps_granted + 1);
                ps.ps_granted <- ps.ps_granted + 1;
                granted_now.(i) <- granted_now.(i) + 1;
                decr pool;
                progress := true
              end)
            unresolved
        done;
        List.iteri
          (fun i ps ->
            if granted_now.(i) > 0 then
              Event_log.emit log
                (Event_log.Budget_granted
                   { pair = ps.ps_label; extra = granted_now.(i) }))
          unresolved;
        let next = Work_queue.create_open ~rank:fst () in
        Array.iter (push_granted next) !states;
        Work_queue.close_input next;
        if Work_queue.total next > 0 then wave next
      end
    end
  in
  wave wave0;
  (* Tear the fleet down before the final journal writes: on interrupt
     every child is SIGKILLed and reaped immediately (no orphans survive
     the campaign), otherwise workers get a grace period to exit on the
     Shutdown frame. *)
  (match ppool with
  | None -> ()
  | Some pool ->
      if halted () then Proc_pool.kill_all pool
      else Proc_pool.shutdown pool ~grace:2.0);
  let interrupted = halted () in
  if interrupted then
    Event_log.emit log
      (Event_log.Campaign_interrupted
         { executed = Atomic.get executed_n; remaining = !interrupted_remaining });
  (* ---------------------------------------------------------------- *)
  (* Deterministic aggregation: truncate each pair at its skip bound
     (cutoff resolution and/or quarantine), discarding speculative trials
     run past it.                                                       *)
  let states = !states in
  let discarded = ref 0 in
  let results =
    Array.to_list
      (Array.map
         (fun ps ->
           if ps.ps_cancelled > 0 then
             Event_log.emit log
               (Event_log.Trials_cancelled { pair = ps.ps_label; count = ps.ps_cancelled });
           let upto =
             match skip_bound ~cutoff ~qn ps with
             | Some k -> min (k + 1) ps.ps_granted
             | None -> ps.ps_granted
           in
           let kept = ref [] in
           for idx = ps.ps_granted - 1 downto 0 do
             match ps.ps_slots.(idx) with
             | None -> ()  (* cancelled, skipped, crashed or exhausted slot *)
             | Some tr -> if idx < upto then kept := tr :: !kept else incr discarded
           done;
           let kept = !kept in
           let wall =
             List.fold_left
               (fun acc (t : Fuzzer.trial) -> acc +. t.Fuzzer.t_outcome.Outcome.wall_time)
               0.0 kept
           in
           Fuzzer.aggregate_trials ~pair:ps.ps_pair ~wall kept)
         states)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let trials = Array.fold_left ( + ) 0 domain_trials in
  let cancelled = Array.fold_left (fun acc ps -> acc + ps.ps_cancelled) 0 states in
  (* Count only what aggregation keeps: a crash, quarantine or resolution
     past a pair's final skip bound came from a speculative trial, which
     another interleaving need not have run.  The journal still holds
     every trial_crashed line. *)
  let kept ps idx = match skip_bound ~cutoff ~qn ps with Some b -> idx <= b | None -> true in
  let count f = Array.fold_left (fun acc ps -> acc + f ps) 0 states in
  let kept_bound ps = function Some k when kept ps k -> 1 | _ -> 0 in
  let stats =
    {
      s_pairs = Array.length states;
      s_resolved = count (fun ps -> kept_bound ps (resolution ps));
      s_trials = trials;
      s_cancelled = cancelled;
      s_discarded = !discarded;
      s_waves = !waves;
      s_wall = wall;
      s_campaign_wall = wall;
      s_phase1_wall = 0.0;
      s_throughput = (if wall > 0.0 then float_of_int trials /. wall else 0.0);
      s_domains = ndomains;
      s_domain_trials = domain_trials;
      s_domain_busy = domain_busy;
      s_exhausted = Array.fold_left (fun acc ps -> acc + ps.ps_exhausted) 0 states;
      s_crashes = count (fun ps -> List.length (List.filter (kept ps) ps.ps_crash_idxs));
      s_quarantined = count (fun ps -> kept_bound ps (quarantine_bound ~qn ps));
      s_q_skipped = Array.fold_left (fun acc ps -> acc + ps.ps_q_skipped) 0 states;
      s_replayed = Atomic.get replayed_n;
      s_worker_crashes = Atomic.get worker_crashes_n;
      s_worker_respawns = Atomic.get worker_respawns_n;
      s_worker_gave_up = Atomic.get worker_gave_up_n;
      s_proc_active = proc_active;
      s_interrupted = interrupted;
      s_degraded = Atomic.get degraded_n;
      s_p1_level = None;
      s_resume_skipped = resume_skipped;
      s_repro_written = 0;
      s_repro_failed = 0;
      s_repro_oracle_runs = 0;
      s_static = None;
    }
  in
  Event_log.emit log
    (Event_log.Campaign_finished
       { wall; trials; cancelled; throughput = stats.s_throughput });
  reraise_failure ();
  match !produced with
  | Some (Ok x) -> (x, results, stats)
  | _ -> assert false (* produced by now: before the start, or by wave 0 *)

let fuzz_pairs ?(log = Event_log.null ()) ?(stop = stop_switch ()) c
    ~(program : Fuzzer.program) (pairs : Site.Pair.t list) :
    Fuzzer.pair_result list * stats =
  let (), results, stats =
    schedule ~log ~stop c ~stream:false ~program (fun admit ->
        List.iter admit pairs;
        ((), pairs))
  in
  (results, stats)

(* ------------------------------------------------------------------ *)

let run ?(log = Event_log.null ()) ?(stop = stop_switch ()) c
    (program : Fuzzer.program) : result =
  let { repro_dir; corpus; static; target; _ } = c in
  let t_start = Unix.gettimeofday () in
  (* A corpus wants reproduction artifacts; without an explicit repro
     directory they are written inside the corpus itself. *)
  let repro_dir =
    match (repro_dir, corpus) with
    | (Some _ as d), _ | d, None -> d
    | None, Some dir -> Some (Filename.concat dir "repros")
  in
  (* Every artifact directory exists before phase 1 starts, so one that
     cannot be created stops the campaign before any trial runs. *)
  List.iter Atomic_file.mkdir_p (List.filter_map Fun.id [ repro_dir; corpus ]);
  (* Phase 1 is where detector state lives (phase-2 trials attach no
     detector), so this is where the entry budget really bites.  The
     governor is shared across the phase-1 seeds: detection precision is
     a whole-phase property, and the entry budget is a cap on detector
     state, which persists across seeds. *)
  let p1_gov, p1_deadline =
    Fuzzer.governance ?detector_budget:c.detector_budget ?mem_budget:c.mem_budget
      ~no_degrade:c.no_degrade ~tripped:false ()
  in
  let shards = max 1 c.offline_shards in
  let detect = if shards = 1 then Fuzzer.Inline else Fuzzer.Recorded { shards } in
  (* Phase 1 feeds phase 2 as it finds pairs when it runs on one shard
     beside an in-process pool of two or more slots and no budget waits
     for the final pair count.  Otherwise phase 1 finishes first and its
     pairs enter the same scheduler afterwards. *)
  let stream = shards = 1 && c.proc = None && c.domains >= 2 && c.budget = None in
  (* The static pre-filter applies to each pair as it arrives: a pair
     proved [Impossible] is journaled with its reason and never fuzzed.
     The classification is a pure function of the program's AST/model,
     so a resumed campaign recomputes the same filtered set. *)
  let produce admit =
    let tell pair =
      match static with
      | Some st when c.static_filter -> (
          match Static.classify st pair with
          | Static.Impossible _ as v ->
              Event_log.emit log
                (Event_log.Pair_filtered
                   {
                     pair = Site.Pair.to_string pair;
                     reason = Static.verdict_to_string v;
                   })
          | Static.Likely | Static.Unknown _ -> admit pair)
      | _ -> admit pair
    in
    (* A streamed phase 1 holds interning priority, so site ids follow
       phase 1 alone even while trials run beside it. *)
    let p1 =
      let observe ?on_pair () =
        Fuzzer.phase1 ~seeds:c.phase1_seeds ~max_steps:c.max_steps
          ?deadline:p1_deadline ?governor:p1_gov ~detect ?on_pair program
      in
      if stream then Site.with_priority (observe ~on_pair:tell) else observe ()
    in
    let p1_level =
      Option.map
        (fun s -> Governor.level_to_string s.Governor.g_level)
        p1.Fuzzer.p1_degraded
    in
    let potential = Fuzzer.potential_pairs p1 in
    Event_log.emit log
      (Event_log.Phase1_finished
         {
           potential = Site.Pair.Set.cardinal potential;
           wall = p1.Fuzzer.p1_wall;
           degraded = p1_level <> None;
           level = Option.value ~default:"full" p1_level;
         });
    let pairs = Site.Pair.Set.elements potential in
    (* The frontier in fuzzing order: Likely-first when a model exists.
       Unstreamed pairs are admitted in this order, and streamed ones are
       put back into it when wave 0 closes. *)
    let ordered =
      match static with Some st -> Fuzzer.order_pairs ~static:st pairs | None -> pairs
    in
    if not stream then List.iter tell ordered;
    let static_sum, filtered =
      match static with
      | None -> (None, [])
      | Some st ->
          let t0 = Unix.gettimeofday () in
          let uni = Static.universe st in
          let ucounts = Static.count st uni in
          let fcounts =
            List.fold_left
              (fun c p -> Static.count_verdict c (Static.classify st p))
              Static.no_counts pairs
          in
          let filtered =
            if c.static_filter then snd (Fuzzer.partition_frontier ~static:st pairs)
            else []
          in
          let st_wall = Unix.gettimeofday () -. t0 in
          let sum =
            {
              st_universe = Site.Pair.Set.cardinal uni;
              st_universe_impossible = ucounts.Static.n_impossible;
              st_frontier = List.length pairs;
              st_likely = fcounts.Static.n_likely;
              st_unknown = fcounts.Static.n_unknown;
              st_impossible = fcounts.Static.n_impossible;
              st_filtered = List.length filtered;
              st_wall;
            }
          in
          Event_log.emit log
            (Event_log.Static_classified
               {
                 universe = sum.st_universe;
                 universe_impossible = sum.st_universe_impossible;
                 frontier = sum.st_frontier;
                 likely = sum.st_likely;
                 unknown = sum.st_unknown;
                 impossible = sum.st_impossible;
                 filtered = sum.st_filtered;
                 wall = st_wall;
               });
          (Some sum, filtered)
    in
    ((p1, p1_level, static_sum, filtered), ordered)
  in
  let (p1, p1_level, static_sum, filtered), results, stats =
    schedule ~log ~stop c ~stream ~program produce
  in
  let campaign_wall = Unix.gettimeofday () -. t_start in
  let collect p =
    List.fold_left
      (fun acc (r : Fuzzer.pair_result) ->
        if p r then Site.Pair.Set.add r.Fuzzer.pr_pair acc else acc)
      Site.Pair.Set.empty results
  in
  let analysis =
    {
      Fuzzer.a_phase1 = p1;
      results;
      real_pairs = collect Fuzzer.is_real;
      error_pairs = collect Fuzzer.is_harmful;
      deadlock_pairs = collect (fun r -> r.Fuzzer.deadlock_trials > 0);
      a_filtered = filtered;
    }
  in
  (* Reproduction pass: sequential and after the fact, so it never
     perturbs the deterministic trial aggregation above. *)
  let repro =
    match repro_dir with
    | None -> Repro.no_summary
    | Some dir ->
        let summary =
          Repro.write_all ~fuel:c.repro_fuel ~dir ~target ~max_steps:c.max_steps
            ~program results
        in
        List.iter
          (fun (e : Repro.entry) ->
            let st = e.Repro.r_stats in
            Event_log.emit log
              (Event_log.Repro_written
                 {
                   pair = Site.Pair.to_string e.Repro.r_pair;
                   fingerprint = e.Repro.r_fingerprint;
                   seed = e.Repro.r_seed;
                   file = e.Repro.r_file;
                   steps_before = st.Rf_replay.Shrinker.sh_steps_before;
                   steps_after = st.Rf_replay.Shrinker.sh_steps_after;
                   switches_before = st.Rf_replay.Shrinker.sh_switches_before;
                   switches_after = st.Rf_replay.Shrinker.sh_switches_after;
                   oracle_runs = st.Rf_replay.Shrinker.sh_oracle_runs;
                 }))
          summary.Repro.written;
        summary
  in
  (* Corpus absorption: one entry per distinct error fingerprint (with
     its minimized schedule copied in) and per degraded trial.
     Deduplication across campaigns happens inside
     {!Corpus.update}; re-running the same campaign adds nothing. *)
  (match corpus with
  | None -> ()
  | Some dir ->
      let error_entries =
        List.map
          (fun (e : Repro.entry) ->
            Corpus.ingest_file ~dir ~kind:"error" ~key:e.Repro.r_fingerprint
              ~target
              ~pair:(Site.Pair.to_string e.Repro.r_pair)
              ~seed:e.Repro.r_seed ~src:e.Repro.r_file ())
          repro.Repro.written
      in
      let degraded_entries =
        List.concat_map
          (fun (r : Fuzzer.pair_result) ->
            let pair = Site.Pair.to_string r.Fuzzer.pr_pair in
            List.filter_map
              (fun (t : Fuzzer.trial) ->
                match t.Fuzzer.t_degraded with
                | None -> None
                | Some s ->
                    let level = Governor.level_to_string s.Governor.g_level in
                    Some
                      (Corpus.entry ~kind:"degraded"
                         ~key:
                           (Printf.sprintf "%s#%d@%s" pair t.Fuzzer.t_seed
                              level)
                         ~target ~pair ~seed:t.Fuzzer.t_seed ()))
              r.Fuzzer.trials)
          results
      in
      let sum = Corpus.update ~dir (error_entries @ degraded_entries) in
      Event_log.emit log
        (Event_log.Corpus_updated
           {
             dir;
             added = sum.Corpus.cs_added;
             deduped = sum.Corpus.cs_deduped;
             total = sum.Corpus.cs_total;
           }));
  ({
     analysis;
     stats =
       {
         stats with
         s_campaign_wall = campaign_wall;
         s_phase1_wall = p1.Fuzzer.p1_wall;
         s_p1_level = p1_level;
         s_static = static_sum;
         s_repro_written = List.length repro.Repro.written;
         s_repro_failed = repro.Repro.failed;
         s_repro_oracle_runs = repro.Repro.oracle_runs;
       };
     repro;
   }
    : result)


(* ------------------------------------------------------------------ *)
(* Determinism fingerprint                                             *)

let add_pair_record buf (r : Fuzzer.pair_result) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "pair %s race=%d err=%d dead=%d n=%d p=%.17g rs=%s es=%s\n"
    (Site.Pair.to_string r.Fuzzer.pr_pair)
    r.Fuzzer.race_trials r.Fuzzer.error_trials r.Fuzzer.deadlock_trials
    (List.length r.Fuzzer.trials)
    r.Fuzzer.probability
    (match r.Fuzzer.race_seed with Some s -> string_of_int s | None -> "-")
    (match r.Fuzzer.error_seed with Some s -> string_of_int s | None -> "-");
  List.iter
    (fun (t : Fuzzer.trial) ->
      let o = t.Fuzzer.t_outcome in
      add "  t%d race=%b exn=%d dead=%b steps=%d sw=%d%s\n" t.Fuzzer.t_seed
        (Algo.race_created t.Fuzzer.t_report)
        (List.length o.Outcome.exceptions)
        (Outcome.deadlocked o) o.Outcome.steps o.Outcome.switches
        (match t.Fuzzer.t_degraded with
        | Some s ->
            Printf.sprintf " degraded=%s ev=%d"
              (Governor.level_to_string s.Governor.g_level)
              s.Governor.g_evicted
        | None -> ""))
    r.Fuzzer.trials

(* Results are canonicalized by pair before hashing, so the fingerprint is
   independent of wave scheduling order (in particular of the Likely-first
   reordering the static pre-filter applies). *)
let sorted_results (a : Fuzzer.analysis) =
  List.sort
    (fun (x : Fuzzer.pair_result) (y : Fuzzer.pair_result) ->
      Site.Pair.compare x.Fuzzer.pr_pair y.Fuzzer.pr_pair)
    a.Fuzzer.results

let fingerprint (a : Fuzzer.analysis) : string =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let add_pair_set tag set =
    add "%s:" tag;
    Site.Pair.Set.iter (fun p -> add "%s;" (Site.Pair.to_string p)) set;
    add "\n"
  in
  add_pair_set "potential" (Fuzzer.potential_pairs a.Fuzzer.a_phase1);
  (* Degradation is part of the verdict: a degraded run must fingerprint
     identically to the same degraded run elsewhere, and differently from
     a full-precision run.  Non-degraded runs add no bytes here, so their
     fingerprints are unchanged from earlier schema. *)
  (match a.Fuzzer.a_phase1.Fuzzer.p1_degraded with
  | Some s ->
      add "p1-degraded:%s ev=%d\n"
        (Governor.level_to_string s.Governor.g_level)
        s.Governor.g_evicted
  | None -> ());
  List.iter (add_pair_record buf) (sorted_results a);
  add_pair_set "real" a.Fuzzer.real_pairs;
  add_pair_set "error" a.Fuzzer.error_pairs;
  add_pair_set "deadlock" a.Fuzzer.deadlock_pairs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let equal_verdicts a b = String.equal (fingerprint a) (fingerprint b)

(** Fingerprint of the {e confirmed} verdicts only: the real/error/deadlock
    pair sets plus the full per-trial records of every pair in them.
    Filtering Impossible pairs must not change this digest — that is the
    CI gate for [--static-filter]: all the filter may do is skip pairs that
    confirm nothing. *)
let confirmed_fingerprint (a : Fuzzer.analysis) : string =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let add_pair_set tag set =
    add "%s:" tag;
    Site.Pair.Set.iter (fun p -> add "%s;" (Site.Pair.to_string p)) set;
    add "\n"
  in
  add_pair_set "real" a.Fuzzer.real_pairs;
  add_pair_set "error" a.Fuzzer.error_pairs;
  add_pair_set "deadlock" a.Fuzzer.deadlock_pairs;
  let confirmed =
    Site.Pair.Set.union a.Fuzzer.real_pairs
      (Site.Pair.Set.union a.Fuzzer.error_pairs a.Fuzzer.deadlock_pairs)
  in
  List.iter
    (fun (r : Fuzzer.pair_result) ->
      if Site.Pair.Set.mem r.Fuzzer.pr_pair confirmed then
        add_pair_record buf r)
    (sorted_results a);
  Digest.to_hex (Digest.string (Buffer.contents buf))
