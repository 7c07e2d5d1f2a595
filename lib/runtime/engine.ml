(** The cooperative scheduling engine.

    Executes a model program (a [unit -> unit] main that may fork further
    threads) under full scheduler control.  Threads are OCaml fibers; every
    shared access / synchronization operation is performed as an effect
    (see {!Op}) which suspends the fiber *at* the pending operation.  The
    engine then:

    - computes the enabled set exactly as the paper defines it (§2.1: a
      thread is disabled while it waits for a lock held by another thread,
      for a [join] of a live thread, or in a wait set);
    - asks the scheduling strategy which enabled thread to execute;
    - executes that thread's single pending operation — the paper's
      [Execute(s, t)] — emitting the corresponding {!Rf_events.Event} to
      listeners and to the optional trace;
    - repeats until no thread is enabled, reporting a real deadlock if some
      thread is still alive (Algorithm 1, lines 30–32), or until the step
      bound (livelock guard, cf. the paper's monitor thread, §4).

    All nondeterminism (strategy choices, notify target selection) draws
    from a single PRNG seeded by [Config.seed], so a run is replayed exactly
    by re-running with the same seed — the paper's lightweight record-free
    replay (§2.2).

    Switch policy: under [`Sync_and sites] the strategy is consulted only at
    synchronization operations and at memory accesses whose static site is
    in [sites]; other memory accesses execute immediately under the current
    thread.  This implements the paper's optimization (§4, citing [31]) that
    makes RaceFuzzer's overhead far smaller than hybrid race detection's:
    RaceFuzzer passes the racing pair as [sites], while detectors that need
    every access use [`Every_op].  Such an unwatched access does not even
    leave the thread's fiber: {!Op.mem} asks a domain-local hook, which
    [run] installs for the run (and restores afterwards, also when an
    exception escapes), and the hook executes the access in place — step
    count, last site, owed RCV, emission — where an effect would have cost
    a continuation, a parked operation and a trip through the loop.

    {2 Hot-path data structures (amortized O(1) per step)}

    The per-step bookkeeping never scans the whole thread population:

    - threads live in a growable array indexed by tid, so [thread] lookup
      (joins, notify targets, strategy validation) is one array read;
    - lock monitor state lives in a growable array indexed by lock id;
    - each thread caches its lockset ({!Lockset.t} is a persistent set, so
      the cached value is shared into emitted [Mem] events without
      copying), updated only at outermost acquire / innermost release;
    - enabledness is maintained {e incrementally}: every thread carries an
      [enabled_flag] (mirrored by a global count), recomputed only at the
      transitions that can change it — fork, death, acquire/release,
      wait/notify, join, interrupt.  Threads blocked acquiring a monitor
      are registered in that monitor's [contenders] list and re-evaluated
      when its holder changes; threads blocked joining are registered in
      the target's [joiners] list and woken at its death.  The scheduler
      loop never re-runs the enabledness predicate over all threads;
    - events are only constructed when someone observes them (a recorded
      trace, a listener, or verbose mode): with no sink attached, [emit]
      costs nothing — no event record, no lockset snapshot;
    - the strategy view is cached: each thread's row lives as long as the
      thread and its [pend] is updated in place, and the list of enabled
      rows is rebuilt only after some enabled flag flips;
    - an unwatched access under [`Sync_and] costs no effect, continuation
      or parked operation ([mem_in_fiber] allocates only its [last_site]
      option), and the PRNG draw at each switch allocates nothing
      ({!Rf_util.Prng} keeps its state unboxed). *)

open Rf_util
open Rf_events

type switch_policy = Every_op | Sync_and of Site.Set.t

type deadline = {
  dl_wall : float option;
  dl_steps : int option;
  dl_heap_mb : float option;
  dl_heap_hook : (unit -> bool) option;
  dl_poll : int;
}

let deadline ?wall ?steps ?heap_mb ?heap_hook ?(poll = 2048) () =
  {
    dl_wall = wall;
    dl_steps = steps;
    dl_heap_mb = heap_mb;
    dl_heap_hook = heap_hook;
    dl_poll = max 1 poll;
  }

let heap_mb_now () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.heap_words * (Sys.word_size / 8)) /. 1e6

type config = {
  seed : int;
  policy : switch_policy;
  record_trace : bool;
  max_steps : int;
  verbose : bool;
  deadline : deadline option;
}

let default_config =
  {
    seed = 0;
    policy = Every_op;
    record_trace = false;
    max_steps = 2_000_000;
    verbose = false;
    deadline = None;
  }

type fiber =
  | Not_started of (unit -> unit)
  | Running
  | Pending : 'a Op.t * ('a, unit) Effect.Deep.continuation -> fiber
  | In_waitset of {
      wlock : Lock.t;
      wdepth : int;
      wsite : Site.t;
      wk : (unit, unit) Effect.Deep.continuation;
    }
  | Finished
  | Killed of exn

type thread = {
  tid : int;
  tname : string;
  mutable fiber : fiber;
  mutable held : (int * int) list;  (* lock id -> reentrancy depth *)
  mutable lockset : Lockset.t;  (* cached: exactly the ids in [held] *)
  mutable interrupt_pending : bool;
  mutable pending_rcv : (int * Event.sync_reason) option;
  mutable death_msg : int option;
  mutable last_site : Site.t option;
  mutable lockset_id : int;  (* [lockset] interned in the binary writer *)
  mutable enabled_flag : bool;  (* maintained at enabledness transitions *)
  mutable joiners : int list;  (* live threads parked joining this one *)
  entry : Strategy.entry;
      (* strategy-view row for this thread; its [pend] is updated in place
         whenever the thread parks, so the cached view list stays valid *)
}

type lock_state = {
  lname : string;
  mutable holder : int option;
  mutable depth : int;
  mutable waiters : int list;  (* FIFO arrival order; notify picks randomly *)
  mutable contenders : int list;  (* threads parked at Acquire/Reacquire *)
}

type t = {
  cfg : config;
  prng : Prng.t;
  strategy : Strategy.t;
  listeners : (Event.t -> unit) list;
  sink : bool;  (* any observer at all: trace, listener, verbose or btrace *)
  obs : bool;  (* an [Event.t]-materializing observer (not just btrace) *)
  bw : Btrace.writer option;  (* binary recording: direct, event-free appends *)
  mutable threads : thread array;  (* index = tid; first n_threads slots *)
  mutable n_threads : int;
  mutable lock_states : lock_state option array;  (* index = lock id *)
  mutable enabled_count : int;
  mutable running : int;  (* tid of the thread whose fiber runs, if any *)
  mutable view : Strategy.entry list;  (* rows of the enabled threads, by tid *)
  mutable view_stale : bool;  (* some enabled flag flipped since [view] *)
  mutable steps : int;
  mutable switches : int;
  mutable next_msg : int;
  mutable exceptions : Outcome.exn_report list;  (* newest first *)
  mutable timed_out : bool;
  mutable cancelled : Outcome.cancel_reason option;
  t_start : float;  (* wall-clock run start; anchor for dl_wall *)
  stalled0 : float;  (* [Site.stalled] at run start *)
  mutable next_wall_check : int;  (* step count of the next dl_wall poll *)
  trace : Trace.t option;
}

exception Engine_invariant of string

let invariant_fail fmt = Fmt.kstr (fun s -> raise (Engine_invariant s)) fmt

(* Interned once at module init so thread death never touches the
   (mutex-protected) site registry. *)
let exit_site = Site.make "thread-exit"

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let emit eng ev =
  (match eng.trace with Some tr -> Trace.add tr ev | None -> ());
  List.iter (fun f -> f ev) eng.listeners;
  if eng.cfg.verbose then Fmt.epr "[engine] %a@." Event.pp ev

(* Emission is two-channel: [emit] materializes an [Event.t] for the
   observers (trace, listeners, verbose) while the binary writer takes
   direct appends — no event record, no lockset snapshot.  Call sites
   stay gated on [eng.sink] (any channel present); each helper then
   serves whichever channels exist. *)

let[@inline] emit_mem eng th site loc access =
  (match eng.bw with
  | Some w -> Btrace.mem w ~tid:th.tid ~site ~loc ~access ~lockset_id:th.lockset_id
  | None -> ());
  if eng.obs then
    emit eng (Event.Mem { tid = th.tid; site; loc; access; lockset = th.lockset })

let[@inline] emit_acquire eng ~tid ~lock ~site =
  (match eng.bw with Some w -> Btrace.acquire w ~tid ~lock ~site | None -> ());
  if eng.obs then emit eng (Event.Acquire { tid; lock; site })

let[@inline] emit_release eng ~tid ~lock ~site =
  (match eng.bw with Some w -> Btrace.release w ~tid ~lock ~site | None -> ());
  if eng.obs then emit eng (Event.Release { tid; lock; site })

let[@inline] emit_snd eng ~tid ~msg ~reason =
  (match eng.bw with Some w -> Btrace.snd_ w ~tid ~msg ~reason | None -> ());
  if eng.obs then emit eng (Event.Snd { tid; msg; reason })

let[@inline] emit_rcv eng ~tid ~msg ~reason =
  (match eng.bw with Some w -> Btrace.rcv w ~tid ~msg ~reason | None -> ());
  if eng.obs then emit eng (Event.Rcv { tid; msg; reason })

let[@inline] emit_start eng ~tid ~name =
  (match eng.bw with Some w -> Btrace.start w ~tid ~name | None -> ());
  if eng.obs then emit eng (Event.Start { tid; name })

let[@inline] emit_exit eng ~tid =
  (match eng.bw with Some w -> Btrace.exit_ w ~tid | None -> ());
  if eng.obs then emit eng (Event.Exit { tid })

(* Lockset changes are rare (outermost acquire / innermost release / wait /
   reacquire / death), so the binary id is re-interned only here and every
   [Mem] append reuses it. *)
let[@inline] set_lockset eng th ls =
  th.lockset <- ls;
  match eng.bw with
  | Some w -> th.lockset_id <- Btrace.intern_lockset w ls
  | None -> ()

let fresh_msg eng =
  let g = eng.next_msg in
  eng.next_msg <- g + 1;
  g

let thread eng tid =
  if tid < 0 || tid >= eng.n_threads then invariant_fail "unknown tid %d" tid
  else eng.threads.(tid)

let lock_state eng (l : Lock.t) =
  let lid = Lock.id l in
  let cap = Array.length eng.lock_states in
  if lid >= cap then begin
    let bigger = Array.make (max 8 (max (2 * cap) (lid + 1))) None in
    Array.blit eng.lock_states 0 bigger 0 cap;
    eng.lock_states <- bigger
  end;
  match eng.lock_states.(lid) with
  | Some ls -> ls
  | None ->
      let ls =
        { lname = Lock.name l; holder = None; depth = 0; waiters = []; contenders = [] }
      in
      eng.lock_states.(lid) <- Some ls;
      ls

let find_lock_state eng lid =
  if lid >= 0 && lid < Array.length eng.lock_states then eng.lock_states.(lid)
  else None

let is_dead th =
  match th.fiber with Finished | Killed _ -> true | _ -> false

let alive th = not (is_dead th)

(* ------------------------------------------------------------------ *)
(* Enabledness (paper §2.1), maintained incrementally.

   [compute_enabled] is the paper's predicate; it is evaluated only at the
   transitions that can change a thread's answer, and the result is cached
   in [enabled_flag] / [enabled_count] for the scheduler loop.           *)

let set_enabled eng th v =
  if th.enabled_flag <> v then begin
    th.enabled_flag <- v;
    eng.enabled_count <- eng.enabled_count + (if v then 1 else -1);
    eng.view_stale <- true
  end

let compute_enabled eng th =
  match th.fiber with
  | Not_started _ -> true
  | Running -> invariant_fail "enabled: thread t%d marked Running" th.tid
  | Pending (op, _) -> (
      match op with
      | Op.Acquire (l, _) ->
          let ls = lock_state eng l in
          ls.holder = None || ls.holder = Some th.tid
      | Op.Reacquire (l, _, _, _) -> (lock_state eng l).holder = None
      | Op.Join (h, _) ->
          is_dead (thread eng (Handle.tid h)) || th.interrupt_pending
      | _ -> true)
  | In_waitset _ | Finished | Killed _ -> false

let refresh_enabled eng th = set_enabled eng th (compute_enabled eng th)

(* Re-evaluate every thread parked acquiring this monitor; called whenever
   its holder changes. *)
let sweep_contenders eng ls =
  List.iter (fun tid -> refresh_enabled eng (thread eng tid)) ls.contenders

let remove_contender ls tid =
  ls.contenders <- List.filter (fun t -> t <> tid) ls.contenders

(* Registration of a freshly parked operation: set the thread's flag and
   subscribe it to the transitions that could flip it later. *)
let on_park eng th (type a) (op : a Op.t) =
  match op with
  | Op.Acquire (l, _) | Op.Reacquire (l, _, _, _) ->
      let ls = lock_state eng l in
      ls.contenders <- th.tid :: ls.contenders;
      refresh_enabled eng th
  | Op.Join (h, _) ->
      let target = thread eng (Handle.tid h) in
      if is_dead target || th.interrupt_pending then set_enabled eng th true
      else begin
        (* woken by the target's death or by an interrupt *)
        target.joiners <- th.tid :: target.joiners;
        set_enabled eng th false
      end
  | _ -> set_enabled eng th true

let new_thread eng ~name body =
  let tid = eng.n_threads in
  let th =
    {
      tid;
      tname = name;
      fiber = Not_started body;
      held = [];
      lockset = Lockset.empty;
      lockset_id = 0;
      interrupt_pending = false;
      pending_rcv = None;
      death_msg = None;
      last_site = None;
      enabled_flag = false;
      joiners = [];
      entry = { Strategy.tid; tname = name; pend = Op.P_start };
    }
  in
  let cap = Array.length eng.threads in
  if tid = cap then begin
    let bigger = Array.make (max 8 (2 * cap)) th in
    Array.blit eng.threads 0 bigger 0 cap;
    eng.threads <- bigger
  end;
  eng.threads.(tid) <- th;
  eng.n_threads <- tid + 1;
  set_enabled eng th true;
  th

(* ------------------------------------------------------------------ *)
(* Thread completion                                                   *)

let on_thread_done eng th (failure : exn option) =
  (* A dying thread force-releases any monitors it still holds (Java's
     synchronized always unwinds; explicit lock/unlock model code could
     otherwise wedge the whole system). *)
  List.iter
    (fun (lid, _) ->
      match find_lock_state eng lid with
      | Some ls when ls.holder = Some th.tid ->
          ls.holder <- None;
          ls.depth <- 0;
          if eng.sink then
            emit_release eng ~tid:th.tid ~lock:lid ~site:exit_site;
          sweep_contenders eng ls
      | _ -> ())
    th.held;
  th.held <- [];
  set_lockset eng th Lockset.empty;
  (* Death message: join edges receive from it (paper §2.2: thread t1 calls
     t2.join() and t2 terminates => SND(g, t2), RCV(g, t1)). *)
  let g = fresh_msg eng in
  th.death_msg <- Some g;
  if eng.sink then begin
    emit_snd eng ~tid:th.tid ~msg:g ~reason:Event.Join;
    emit_exit eng ~tid:th.tid
  end;
  (match failure with
  | None -> th.fiber <- Finished
  | Some e ->
      th.fiber <- Killed e;
      eng.exceptions <-
        { Outcome.xtid = th.tid; xthread = th.tname; exn_ = e; raised_at = th.last_site }
        :: eng.exceptions);
  set_enabled eng th false;
  (* Wake the joiners (fiber is settled dead at this point). *)
  List.iter (fun tid -> refresh_enabled eng (thread eng tid)) th.joiners;
  th.joiners <- []

(* ------------------------------------------------------------------ *)
(* Fiber plumbing                                                      *)

(* Raised inside a fiber by an observer (listener, trace, binary writer)
   while an access runs in place ([mem_in_fiber]): the handler re-raises
   it on the engine's side, so it escapes [run] exactly as when the
   engine loop itself emitted the event, instead of unwinding the model
   thread as the thread's own exception. *)
type _ Effect.t += Escape : exn * Printexc.raw_backtrace -> unit Effect.t

(* The effect handler merely parks the continuation on the thread record
   and returns; control then falls back to the engine loop (trampoline
   style — no stack growth across context switches). *)
let handler eng th =
  {
    Effect.Deep.retc = (fun () -> on_thread_done eng th None);
    exnc = (fun e -> on_thread_done eng th (Some e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Op.Eff op ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                th.fiber <- Pending (op, k);
                th.entry.pend <- Op.pend_of op;
                on_park eng th op)
        | Escape (e, bt) -> Some (fun _ -> Printexc.raise_with_backtrace e bt)
        | _ -> None);
  }

let start_fiber eng th body =
  th.fiber <- Running;
  eng.running <- th.tid;
  Effect.Deep.match_with body () (handler eng th)

let resume : type a. t -> thread -> (a, unit) Effect.Deep.continuation -> a -> unit =
 fun eng th k v ->
  th.fiber <- Running;
  eng.running <- th.tid;
  Effect.Deep.continue k v

let resume_exn eng th k e =
  th.fiber <- Running;
  eng.running <- th.tid;
  Effect.Deep.discontinue k e

(* Deliver the RCV event a thread owes from the sync action that unblocked
   or created it, just before its next own event. *)
let flush_rcv eng th =
  match th.pending_rcv with
  | None -> ()
  | Some (msg, reason) ->
      th.pending_rcv <- None;
      if eng.sink then emit_rcv eng ~tid:th.tid ~msg ~reason

(* ------------------------------------------------------------------ *)
(* Executing one pending operation: the paper's Execute(s, t).         *)

let record_site th =
  (* [th.entry.pend] mirrors the parked op, so no pend view is rebuilt here. *)
  match Op.pend_site th.entry.Strategy.pend with
  | Some _ as s -> th.last_site <- s
  | None -> ()

let exec_op (eng : t) (th : thread) : unit =
  eng.steps <- eng.steps + 1;
  match th.fiber with
  | Not_started body ->
      flush_rcv eng th;
      if eng.sink then emit_start eng ~tid:th.tid ~name:th.tname;
      start_fiber eng th body
  | Pending (op, k) -> (
      record_site th;
      flush_rcv eng th;
      match op with
      | Op.Mem { site; loc; access } ->
          if eng.sink then emit_mem eng th site loc access;
          resume eng th k ()
      | Op.Acquire (l, site) ->
          let ls = lock_state eng l in
          remove_contender ls th.tid;
          (match ls.holder with
          | Some tid when tid = th.tid ->
              (* reentrant: no lockset change, no event *)
              ls.depth <- ls.depth + 1;
              th.held <-
                List.map
                  (fun (lid, d) -> if lid = Lock.id l then (lid, d + 1) else (lid, d))
                  th.held
          | Some other ->
              invariant_fail "acquire of L%d held by t%d scheduled for t%d"
                (Lock.id l) other th.tid
          | None ->
              ls.holder <- Some th.tid;
              ls.depth <- 1;
              th.held <- (Lock.id l, 1) :: th.held;
              set_lockset eng th (Lockset.add (Lock.id l) th.lockset);
              if eng.sink then
                emit_acquire eng ~tid:th.tid ~lock:(Lock.id l) ~site;
              sweep_contenders eng ls);
          resume eng th k ()
      | Op.Release (l, site) ->
          let ls = lock_state eng l in
          if ls.holder <> Some th.tid then
            resume_exn eng th k
              (Op.Illegal_monitor_state
                 (Fmt.str "t%d releases %a it does not hold" th.tid Lock.pp l))
          else begin
            ls.depth <- ls.depth - 1;
            if ls.depth = 0 then begin
              ls.holder <- None;
              th.held <- List.remove_assoc (Lock.id l) th.held;
              set_lockset eng th (Lockset.remove (Lock.id l) th.lockset);
              if eng.sink then
                emit_release eng ~tid:th.tid ~lock:(Lock.id l) ~site;
              sweep_contenders eng ls
            end
            else
              th.held <-
                List.map
                  (fun (lid, d) -> if lid = Lock.id l then (lid, d - 1) else (lid, d))
                  th.held;
            resume eng th k ()
          end
      | Op.Wait (l, site) ->
          let ls = lock_state eng l in
          if ls.holder <> Some th.tid then
            resume_exn eng th k
              (Op.Illegal_monitor_state
                 (Fmt.str "t%d waits on %a it does not hold" th.tid Lock.pp l))
          else if th.interrupt_pending then begin
            (* wait() on an already-interrupted thread throws immediately,
               keeping the monitor. *)
            th.interrupt_pending <- false;
            resume_exn eng th k Op.Interrupted
          end
          else begin
            let d = ls.depth in
            ls.holder <- None;
            ls.depth <- 0;
            th.held <- List.remove_assoc (Lock.id l) th.held;
            set_lockset eng th (Lockset.remove (Lock.id l) th.lockset);
            if eng.sink then
              emit_release eng ~tid:th.tid ~lock:(Lock.id l) ~site;
            ls.waiters <- ls.waiters @ [ th.tid ];
            th.fiber <- In_waitset { wlock = l; wdepth = d; wsite = site; wk = k };
            set_enabled eng th false;
            sweep_contenders eng ls
            (* no resume: the thread parks until notify/interrupt *)
          end
      | Op.Reacquire (l, d, interrupted, site) ->
          let ls = lock_state eng l in
          remove_contender ls th.tid;
          if ls.holder <> None then
            invariant_fail "reacquire of held lock L%d scheduled" (Lock.id l);
          ls.holder <- Some th.tid;
          ls.depth <- d;
          th.held <- (Lock.id l, d) :: th.held;
          set_lockset eng th (Lockset.add (Lock.id l) th.lockset);
          if eng.sink then
            emit_acquire eng ~tid:th.tid ~lock:(Lock.id l) ~site;
          sweep_contenders eng ls;
          if interrupted then begin
            th.interrupt_pending <- false;
            resume_exn eng th k Op.Interrupted
          end
          else resume eng th k ()
      | Op.Notify (l, all, _site) ->
          let ls = lock_state eng l in
          if ls.holder <> Some th.tid then
            resume_exn eng th k
              (Op.Illegal_monitor_state
                 (Fmt.str "t%d notifies %a it does not hold" th.tid Lock.pp l))
          else begin
            (match ls.waiters with
            | [] -> ()
            | waiters ->
                let chosen =
                  if all then waiters
                  else [ List.nth waiters (Prng.int eng.prng (List.length waiters)) ]
                in
                let g = fresh_msg eng in
                if eng.sink then
                  emit_snd eng ~tid:th.tid ~msg:g ~reason:Event.Notify;
                List.iter
                  (fun wtid ->
                    let wth = thread eng wtid in
                    match wth.fiber with
                    | In_waitset { wlock; wdepth; wsite; wk } ->
                        wth.pending_rcv <- Some (g, Event.Notify);
                        wth.fiber <-
                          Pending (Op.Reacquire (wlock, wdepth, false, wsite), wk);
                        wth.entry.pend <-
                          Op.P_reacquire { lock = Lock.id wlock; site = wsite };
                        ls.contenders <- wtid :: ls.contenders;
                        refresh_enabled eng wth
                    | _ ->
                        invariant_fail "waiter t%d of L%d not in wait set" wtid
                          (Lock.id l))
                  chosen;
                ls.waiters <-
                  List.filter (fun tid -> not (List.mem tid chosen)) ls.waiters);
            resume eng th k ()
          end
      | Op.Fork (name, body) ->
          let child = new_thread eng ~name body in
          let g = fresh_msg eng in
          if eng.sink then
            emit_snd eng ~tid:th.tid ~msg:g ~reason:Event.Fork;
          child.pending_rcv <- Some (g, Event.Fork);
          resume eng th k (Handle.make ~tid:child.tid ~name)
      | Op.Join (h, _site) ->
          let target = thread eng (Handle.tid h) in
          if th.interrupt_pending then begin
            th.interrupt_pending <- false;
            target.joiners <- List.filter (fun t -> t <> th.tid) target.joiners;
            resume_exn eng th k Op.Interrupted
          end
          else begin
            if not (is_dead target) then
              invariant_fail "join of live t%d scheduled for t%d" target.tid th.tid;
            (match target.death_msg with
            | Some g ->
                if eng.sink then
                  emit_rcv eng ~tid:th.tid ~msg:g ~reason:Event.Join
            | None -> ());
            resume eng th k ()
          end
      | Op.Interrupt (h, _site) ->
          (let target = thread eng (Handle.tid h) in
           if not (is_dead target) then begin
             target.interrupt_pending <- true;
             (match target.fiber with
             | In_waitset { wlock; wdepth; wsite; wk } ->
                 (* An interrupted waiter leaves the wait set, re-contends for
                    the monitor, and then receives InterruptedException. *)
                 let ls = lock_state eng wlock in
                 ls.waiters <- List.filter (fun tid -> tid <> target.tid) ls.waiters;
                 target.fiber <-
                   Pending (Op.Reacquire (wlock, wdepth, true, wsite), wk);
                 target.entry.pend <-
                   Op.P_reacquire { lock = Lock.id wlock; site = wsite };
                 ls.contenders <- target.tid :: ls.contenders
             | _ -> ());
             if target.tid <> th.tid then refresh_enabled eng target
           end);
          resume eng th k ()
      | Op.Sleep _site ->
          if th.interrupt_pending then begin
            th.interrupt_pending <- false;
            resume_exn eng th k Op.Interrupted
          end
          else resume eng th k ()
      | Op.Pause -> resume eng th k ())
  | Running | In_waitset _ | Finished | Killed _ ->
      invariant_fail "exec_op: thread t%d not executable" th.tid

(* Under [Sync_and sites], a memory access at an unwatched site is
   executed where the running thread issues it ({!Op.mem}), with no
   effect, no continuation and no strategy consultation: the step is
   counted against [max_steps], the site recorded, the owed RCV
   delivered and the access emitted, exactly as [exec_op] would.  At the
   step cap it declines, so the access parks and the loop stops the run
   there.  Observer failures leave through [Escape]. *)
let mem_in_fiber eng sites site loc access =
  (not (Site.Set.mem site sites))
  && eng.steps < eng.cfg.max_steps
  && begin
       let th = eng.threads.(eng.running) in
       eng.steps <- eng.steps + 1;
       th.last_site <- Some site;
       (if eng.sink then
          try
            flush_rcv eng th;
            emit_mem eng th site loc access
          with e -> Effect.perform (Escape (e, Printexc.get_raw_backtrace ()))
        else th.pending_rcv <- None);
       true
     end

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

(* The enabled rows are rebuilt only after some thread's enabledness
   flipped; a thread that parks at a new operation while staying enabled
   keeps its row, whose [pend] the handler updated in place. *)
let view_of eng =
  if eng.view_stale then begin
    let entries = ref [] in
    for i = eng.n_threads - 1 downto 0 do
      let th = eng.threads.(i) in
      if th.enabled_flag then entries := th.entry :: !entries
    done;
    eng.view <- !entries;
    eng.view_stale <- false
  end;
  { Strategy.step = eng.steps; enabled = eng.view; prng = eng.prng }

(* The watchdog: consulted at every switch point.  The step cap is exact
   (to switch granularity); the wall clock and heap watermark are polled
   every [dl_poll] steps, starting {e before} the first step so a run
   whose budget is already spent (e.g. a stalled harness) is cancelled
   without executing at all.  A tripped heap watermark first offers the
   overage to [dl_heap_hook] (a resource governor's degradation ladder);
   only if the hook is absent or declines does the run cancel. *)
let deadline_hit eng =
  match eng.cfg.deadline with
  | None -> None
  | Some dl -> (
      match dl.dl_steps with
      | Some cap when eng.steps >= cap -> Some Outcome.Step_deadline
      | _ ->
          if
            (dl.dl_wall <> None || dl.dl_heap_mb <> None)
            && eng.steps >= eng.next_wall_check
          then begin
            eng.next_wall_check <- eng.steps + dl.dl_poll;
            let wall_hit =
              match dl.dl_wall with
              | Some budget ->
                  (* time spent waiting for phase 1 to intern a site is
                     not this run's work *)
                  let stalled = Site.stalled () -. eng.stalled0 in
                  Unix.gettimeofday () -. eng.t_start -. stalled > budget
              | None -> false
            in
            if wall_hit then Some Outcome.Wall_deadline
            else
              match dl.dl_heap_mb with
              | Some mb when heap_mb_now () > mb -> (
                  match dl.dl_heap_hook with
                  | Some absorb when absorb () -> None
                  | _ -> Some Outcome.Heap_watermark)
              | _ -> None
          end
          else None)

let rec loop eng =
  if eng.steps >= eng.cfg.max_steps then eng.timed_out <- true
  else
    match deadline_hit eng with
    | Some reason -> eng.cancelled <- Some reason
    | None ->
  if eng.enabled_count = 0 then ()
    (* termination or deadlock; classified by [run] *)
  else begin
    let view = view_of eng in
    eng.switches <- eng.switches + 1;
    let tid = eng.strategy.Strategy.choose view in
    let th =
      if tid >= 0 && tid < eng.n_threads && eng.threads.(tid).enabled_flag then
        eng.threads.(tid)
      else
        invariant_fail "strategy %s chose non-enabled tid %d"
          eng.strategy.Strategy.sname tid
    in
    exec_op eng th;
    loop eng
  end

let run ?(config = default_config) ?(listeners = []) ?btrace ~strategy
    (main : unit -> unit) : Outcome.t =
  Loc.reset_counter ();
  Lock.reset_counter ();
  let t0 = Unix.gettimeofday () in
  let eng =
    {
      cfg = config;
      prng = Prng.create config.seed;
      strategy;
      listeners;
      sink =
        config.record_trace || listeners <> [] || config.verbose
        || btrace <> None;
      obs = config.record_trace || listeners <> [] || config.verbose;
      bw = btrace;
      threads = [||];
      n_threads = 0;
      lock_states = [||];
      enabled_count = 0;
      running = 0;
      view = [];
      view_stale = true;
      steps = 0;
      switches = 0;
      next_msg = 0;
      exceptions = [];
      timed_out = false;
      cancelled = None;
      t_start = t0;
      stalled0 = Site.stalled ();
      next_wall_check = 0;
      trace = (if config.record_trace then Some (Trace.create ()) else None);
    }
  in
  let (_ : thread) = new_thread eng ~name:"main" main in
  let outer = Domain.DLS.get Op.mem_hook in
  Domain.DLS.set Op.mem_hook
    (match config.policy with
    | Every_op -> Op.no_hook
    | Sync_and sites -> fun site loc access -> mem_in_fiber eng sites site loc access);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set Op.mem_hook outer)
    (fun () -> loop eng);
  let wall = Unix.gettimeofday () -. t0 in
  let blocked =
    if eng.timed_out || eng.cancelled <> None then []
    else begin
      let acc = ref [] in
      for i = eng.n_threads - 1 downto 0 do
        let th = eng.threads.(i) in
        if alive th then acc := th :: !acc
      done;
      !acc
    end
  in
  let deadlocked = List.map (fun th -> th.tid) blocked in
  let blocked_at =
    List.map
      (fun th ->
        let site =
          match th.fiber with
          | Pending (op, _) -> Op.pend_site (Op.pend_of op)
          | In_waitset { wsite; _ } -> Some wsite
          | _ -> None
        in
        (th.tid, site))
      blocked
  in
  {
    Outcome.steps = eng.steps;
    switches = eng.switches;
    threads_spawned = eng.n_threads;
    exceptions = List.rev eng.exceptions;
    deadlocked;
    blocked_at;
    timed_out = eng.timed_out;
    cancelled = eng.cancelled;
    trace = eng.trace;
    wall_time = wall;
  }
