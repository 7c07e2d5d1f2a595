(** The RaceFuzzer scheduling strategy — Algorithms 1 and 2 of the paper.

    Given a candidate racing pair [RaceSet = {s1, s2}] from phase 1, the
    strategy drives a random scheduler with one twist: a thread about to
    execute a statement of the pair is *postponed* — parked with its
    operation pending — until some other thread arrives at a statement of
    the pair whose pending access touches the same dynamic memory location
    with at least one write ([Racing], Algorithm 2).  At that moment a
    *real race* has been created: the two accesses are temporally adjacent
    and unordered.  The strategy records the hit and resolves the race by a
    coin flip (Algorithm 1, lines 11–18): either the arriving thread runs
    first, or every postponed racing thread runs first — which is how
    order-dependent errors hiding behind the race get exposed.

    Two liveness devices from the paper's §2.2 and §4:

    - when every enabled thread is postponed, a random postponed thread is
      released and executed ("if we manage to postpone all the threads,
      then we pick a random thread from the set to break the deadlock");
    - a postpone timeout models the monitor thread that "periodically
      removes those threads from the postponed set that are waiting for a
      long time", preventing livelock when one thread spins without
      synchronizing. *)

open Rf_util
open Rf_runtime

(** One created real race. *)
type hit = {
  hit_pair : Site.Pair.t;  (** the RaceSet *)
  hit_sites : Site.t * Site.t;  (** postponed site, arriving site *)
  hit_loc : Loc.t;  (** the shared dynamic location *)
  hit_arriving : int;  (** tid that arrived second *)
  hit_postponed : int list;  (** racing postponed tids (>1 when all reads... ) *)
  hit_step : int;
  resolved_arriving : bool;  (** coin flip: arriving thread executed first *)
}

let pp_hit ppf h =
  Fmt.pf ppf "REAL RACE %a on %a at step %d (t%d vs %a), resolved toward %s"
    Site.Pair.pp h.hit_pair Loc.pp h.hit_loc h.hit_step h.hit_arriving
    (Fmt.list ~sep:Fmt.comma (fun ppf t -> Fmt.pf ppf "t%d" t))
    h.hit_postponed
    (if h.resolved_arriving then "arriving" else "postponed")

(** Mutable per-run report the strategy writes into.

    [hits] is deduplicated by (sites, location): a tight racing loop
    creates the same race millions of times per run, and consing a hit
    record for each was the dominant allocation of the whole phase-2
    path (hundreds of thousands of retained records per trial on the
    access-heavy benchmark).  Scheduling decisions never read [hits], so
    deduplication cannot perturb the schedule; [hit_events] keeps the
    raw creation count for reporting. *)
type report = {
  mutable hits : hit list;  (** distinct created races, newest first *)
  mutable hit_events : int;  (** every race creation, duplicates included *)
  mutable evictions : int;  (** all-postponed deadlock breaks *)
  mutable timeout_releases : int;  (** livelock-relief releases *)
  mutable postponements : int;
}

let fresh_report () =
  {
    hits = [];
    hit_events = 0;
    evictions = 0;
    timeout_releases = 0;
    postponements = 0;
  }

let race_created r = r.hits <> []
let hits r = List.rev r.hits

(** Default bound (in scheduler steps) a thread may stay postponed. *)
let default_postpone_timeout = 2_000

(* The racing partners found by the last [Racing] scan, as tids in
   enabled (tid) order, in a buffer reused across consultations.  After a
   race is resolved toward the postponed side, partners [next, n) are
   the threads that must run next (Algorithm 1 line 16: execute all
   threads of R); otherwise [next = n]. *)
type partners = {
  mutable tids : int array;
  mutable n : int;
  mutable next : int;
  mutable first_site : Site.t;  (* the first partner's pending site *)
}

let push r tid =
  if r.n = Array.length r.tids then begin
    let a = Array.make (2 * r.n) 0 in
    Array.blit r.tids 0 a 0 r.n;
    r.tids <- a
  end;
  r.tids.(r.n) <- tid;
  r.n <- r.n + 1

(** [Racing (s, t, postponed)] — Algorithm 2: the postponed threads whose
    pending access conflicts with [m] (same dynamic location, at least one
    write).  Postponed threads are always parked at a [RaceSet] memory
    operation, so no site check is needed here, mirroring the paper. *)
let rec racing p (m : Op.mem) r = function
  | [] -> ()
  | (e : Strategy.entry) :: rest ->
      (if Postpone.mem p e.tid then
         match e.pend with
         | Op.P_mem m'
           when Loc.equal m.loc m'.loc
                && (m.access = Rf_events.Event.Write || m'.access = Rf_events.Event.Write)
           ->
             if r.n = 0 then r.first_site <- m'.site;
             push r e.tid
         | _ -> ());
      racing p m r rest

(* Threads queued to run next are skipped once they stop being enabled. *)
let rec is_enabled tid = function
  | [] -> false
  | (e : Strategy.entry) :: rest -> e.tid = tid || is_enabled tid rest

let rec from_queue r enabled =
  if r.next >= r.n then -1
  else begin
    let tid = r.tids.(r.next) in
    r.next <- r.next + 1;
    if is_enabled tid enabled then tid else from_queue r enabled
  end

(* Locations already recorded as hits, one table per (postponed site id,
   arriving site id): only the first creation of a distinct race conses a
   hit record. *)
type recorded = { post_id : int; arr_id : int; locs : unit Loc.Tbl.t }

let rec find_recorded post_id arr_id = function
  | [] -> raise Not_found
  | r :: rest ->
      if r.post_id = post_id && r.arr_id = arr_id then r
      else find_recorded post_id arr_id rest

(** Build the strategy for one run.

    [pair] is the RaceSet; [report] collects hits; [postpone_timeout]
    bounds how long (in engine steps, the [view.step] clock — not strategy
    consultations, which advance more slowly under [`Sync_and], where
    unwatched accesses never consult the strategy) a thread may stay
    postponed, [None] disabling relief (ablation). *)
let strategy ?(postpone_timeout = Some default_postpone_timeout) ~pair ~report () :
    Strategy.t =
  let p = Postpone.create ~timeout:postpone_timeout () in
  let r = { tids = Array.make 8 0; n = 0; next = 0; first_site = Site.Pair.fst pair } in
  let recorded = ref [] in
  let record_hit (view : Strategy.view) (e : Strategy.entry) (m : Op.mem) toward_arriving =
    let post_id = Site.id r.first_site and arr_id = Site.id m.site in
    let seen =
      try find_recorded post_id arr_id !recorded
      with Not_found ->
        let seen = { post_id; arr_id; locs = Loc.Tbl.create 8 } in
        recorded := seen :: !recorded;
        seen
    in
    if not (Loc.Tbl.mem seen.locs m.loc) then begin
      Loc.Tbl.add seen.locs m.loc ();
      report.hits <-
        {
          hit_pair = pair;
          hit_sites = (r.first_site, m.site);
          hit_loc = m.loc;
          hit_arriving = e.tid;
          hit_postponed = List.init r.n (fun i -> r.tids.(i));
          hit_step = view.step;
          resolved_arriving = toward_arriving;
        }
        :: report.hits
    end
  in
  let decide (view : Strategy.view) (e : Strategy.entry) =
    match e.pend with
    | Op.P_mem m when Site.Pair.mem m.site pair ->
        r.n <- 0;
        r.next <- 0;
        racing p m r view.enabled;
        if r.n = 0 then begin
          (* No racing partner parked yet: wait for one. *)
          Postpone.add p e.tid ~step:view.step;
          report.postponements <- report.postponements + 1;
          Postpone.retry
        end
        else begin
          (* Real race created. Record and resolve randomly. *)
          let toward_arriving = Prng.bool view.prng in
          report.hit_events <- report.hit_events + 1;
          record_hit view e m toward_arriving;
          if toward_arriving then begin
            (* arriving thread executes; R stays postponed *)
            r.next <- r.n;
            e.tid
          end
          else begin
            (* postponed side executes (all of R); arriving thread is
               postponed in its place *)
            Postpone.add p e.tid ~step:view.step;
            report.postponements <- report.postponements + 1;
            for i = 0 to r.n - 1 do
              Postpone.remove p r.tids.(i)
            done;
            r.next <- 1;
            r.tids.(0)
          end
        end
    | _ -> e.tid
  in
  let choose (view : Strategy.view) =
    (* Livelock relief first, then the must-run queue, then a draw. *)
    report.timeout_releases <-
      report.timeout_releases + Postpone.relieve p ~step:view.step;
    let queued = from_queue r view.enabled in
    if queued >= 0 then queued
    else begin
      let tid = Postpone.pick p view decide in
      if Postpone.evicted p then report.evictions <- report.evictions + 1;
      tid
    end
  in
  Strategy.make ~name:"racefuzzer" choose
