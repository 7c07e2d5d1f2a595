(** Atomicity-directed random testing: phase 2 for
    {!Rf_detect.Atomicity} candidates, completing the trio of problem
    classes the paper's §1 says the biased scheduler supports (races,
    atomicity violations, deadlocks).

    Given a candidate — thread [T] splits a transaction on [loc] under
    lock [L] between two critical sections, thread [I] writes [loc] under
    [L] — the scheduler postpones [T] when it is about to re-enter the
    second section (its pending acquire at [second_acquire]) until [I] is
    about to execute the interfering write; then it runs the write first
    and releases [T].  The stale-value window is thereby exercised with
    high probability; whether it is *harmful* shows up exactly as with
    races, through model assertions/exceptions in the subject program.

    A violation is recorded when the interfering write actually executes
    while [T] stands postponed between its sections — an event-level
    witness that the two sections were not serializable. *)

open Rf_util
open Rf_runtime

type hit = {
  ah_candidate : Rf_detect.Atomicity.candidate;
  ah_step : int;
}

type report = {
  mutable ahits : hit list;
  mutable apostponed : int;
  mutable aevictions : int;
}

let fresh_report () = { ahits = []; apostponed = 0; aevictions = 0 }
let violation_created r = r.ahits <> []

let strategy ?(postpone_timeout = Some Algo.default_postpone_timeout)
    ~(candidate : Rf_detect.Atomicity.candidate) ~(report : report) () : Strategy.t =
  let p = Postpone.create ~timeout:postpone_timeout () in
  let is_second_acquire (e : Strategy.entry) =
    match e.Strategy.pend with
    | Op.P_acquire { site; _ } ->
        Site.equal site candidate.Rf_detect.Atomicity.second_acquire
    | _ -> false
  in
  let is_interfering_write (e : Strategy.entry) =
    match e.Strategy.pend with
    | Op.P_mem m ->
        Site.equal m.Op.site candidate.Rf_detect.Atomicity.interferer_site
        && m.Op.access = Rf_events.Event.Write
    | _ -> false
  in
  let hit (view : Strategy.view) =
    report.ahits <- { ah_candidate = candidate; ah_step = view.step } :: report.ahits
  in
  let decide (view : Strategy.view) (e : Strategy.entry) =
    (* [e] was drawn among the threads that are not postponed, so any
       postponed thread is parked in the gap *)
    if is_interfering_write e && Postpone.count p > 0 then begin
      (* a transaction thread stands between its two sections and the
         conflicting write is about to land in the gap: violation *)
      hit view;
      e.tid
    end
    else if is_second_acquire e then begin
      let interferer = List.find_opt is_interfering_write view.enabled in
      (* hold the transaction open, then run the interferer if it is
         already pending, else wait for it *)
      Postpone.add p e.tid ~step:view.step;
      report.apostponed <- report.apostponed + 1;
      match interferer with
      | Some i when i.Strategy.tid <> e.tid ->
          hit view;
          i.Strategy.tid
      | _ -> Postpone.retry
    end
    else e.tid
  in
  Strategy.make ~name:"atomfuzzer" (fun view ->
      ignore (Postpone.relieve p ~step:view.step);
      let tid = Postpone.pick p view decide in
      if Postpone.evicted p then report.aevictions <- report.aevictions + 1;
      tid)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

type candidate_result = {
  ac_candidate : Rf_detect.Atomicity.candidate;
  ac_trials : int;
  ac_violation_trials : int;
  ac_error_trials : int;
  ac_probability : float;
  ac_seed : int option;
  ac_error_seed : int option;
}

let is_real r = r.ac_violation_trials > 0
let is_harmful r = r.ac_error_trials > 0

let phase1 ?(seeds = [ 0 ]) (program : unit -> unit) =
  (* one detector per execution: section state is inherently per-run
     (thread and lock ids restart each run), so sharing a detector across
     seeds would pair sections from different executions. *)
  let observe seed =
    let d = Rf_detect.Atomicity.create () in
    ignore
      (Engine.run
         ~config:{ Engine.default_config with seed }
         ~listeners:[ Rf_detect.Atomicity.feed d ]
         ~strategy:(Strategy.random ()) program);
    Rf_detect.Atomicity.candidates d
  in
  let all = List.concat_map observe seeds in
  let same (a : Rf_detect.Atomicity.candidate) (b : Rf_detect.Atomicity.candidate) =
    a.Rf_detect.Atomicity.av_lock = b.Rf_detect.Atomicity.av_lock
    && Site.equal a.Rf_detect.Atomicity.first_site b.Rf_detect.Atomicity.first_site
    && Site.equal a.Rf_detect.Atomicity.second_acquire
         b.Rf_detect.Atomicity.second_acquire
    && Site.equal a.Rf_detect.Atomicity.interferer_site
         b.Rf_detect.Atomicity.interferer_site
  in
  List.fold_left
    (fun acc c -> if List.exists (same c) acc then acc else acc @ [ c ])
    [] all

let fuzz_candidate ?(seeds = List.init 100 Fun.id) ~(program : unit -> unit)
    (c : Rf_detect.Atomicity.candidate) : candidate_result =
  let watch =
    Site.Set.add c.Rf_detect.Atomicity.second_acquire
      (Site.Set.singleton c.Rf_detect.Atomicity.interferer_site)
  in
  let trials =
    List.map
      (fun seed ->
        let report = fresh_report () in
        let strategy = strategy ~candidate:c ~report () in
        let o =
          Engine.run
            ~config:{ Engine.default_config with seed; policy = Engine.Sync_and watch }
            ~strategy program
        in
        (seed, o, report))
      seeds
  in
  let violations = List.filter (fun (_, _, r) -> violation_created r) trials in
  let errors =
    List.filter
      (fun (_, o, r) -> violation_created r && Outcome.has_exception o)
      trials
  in
  {
    ac_candidate = c;
    ac_trials = List.length trials;
    ac_violation_trials = List.length violations;
    ac_error_trials = List.length errors;
    ac_probability =
      float_of_int (List.length violations) /. float_of_int (max 1 (List.length trials));
    ac_seed = (match violations with [] -> None | (s, _, _) :: _ -> Some s);
    ac_error_seed = (match errors with [] -> None | (s, _, _) :: _ -> Some s);
  }

let analyze ?(phase1_seeds = [ 0; 1; 2 ]) ?(seeds_per_candidate = List.init 50 Fun.id)
    (program : unit -> unit) : candidate_result list =
  phase1 ~seeds:phase1_seeds program
  |> List.map (fuzz_candidate ~seeds:seeds_per_candidate ~program)
