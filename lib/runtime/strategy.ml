(** Scheduling strategies.

    At every switch point the engine presents the strategy with the set of
    *enabled* threads and their pending operations; the strategy answers
    with the tid to execute next.  A strategy is a record of closures so
    implementations can carry arbitrary mutable state (the RaceFuzzer
    strategy keeps its postponed set this way; see {!Racefuzzer}).

    All randomness must be drawn from the view's PRNG, which the engine
    seeds — this is what makes whole runs replayable from a seed. *)

open Rf_util

type entry = { tid : int; tname : string; mutable pend : Op.pend }

type view = {
  step : int;  (** executed-ops counter *)
  enabled : entry list;  (** non-empty; insertion (tid) order *)
  prng : Prng.t;
}

type t = { sname : string; choose : view -> int }

let name t = t.sname
let make ~name choose = { sname = name; choose }

let tids view = List.map (fun e -> e.tid) view.enabled

(** Uniform random choice among enabled threads — the paper's "simple
    random scheduler" baseline (Table 1, column "Simple"). *)
let random () =
  make ~name:"random" (fun view -> (Prng.pick view.prng view.enabled).tid)

(** Round-robin over tids: a fair, deterministic scheduler. *)
let round_robin () =
  let last = ref (-1) in
  make ~name:"round-robin" (fun view ->
      let ts = tids view in
      let next =
        match List.find_opt (fun tid -> tid > !last) ts with
        | Some tid -> tid
        | None -> List.hd ts
      in
      last := next;
      next)

(** Keep running the same thread for as long as it stays enabled, then fall
    over to the lowest enabled tid.  This approximates a default
    non-preemptive scheduler on a lightly loaded machine — the regime in
    which, as the paper observes (§1, §5.2 column 10), insidious
    interleavings almost never show up. *)
let run_until_block () =
  let current = ref (-1) in
  make ~name:"run-until-block" (fun view ->
      match List.find_opt (fun e -> e.tid = !current) view.enabled with
      | Some e -> e.tid
      | None ->
          let tid = (List.hd view.enabled).tid in
          current := tid;
          tid)

(** Preemptive fair scheduler: run the current thread for up to [quantum]
    decisions, then rotate round-robin.  This is our model of the "default
    scheduler" of a JVM on a lightly loaded machine (paper Table 1,
    column 10): threads interleave fairly, so a one-statement window like
    Figure 2's almost never lines up with the racing read. *)
let timesliced ?(quantum = 10) () =
  let current = ref (-1) in
  let used = ref 0 in
  make ~name:"default" (fun view ->
      let still_enabled = List.exists (fun e -> e.tid = !current) view.enabled in
      if still_enabled && !used < quantum then begin
        incr used;
        !current
      end
      else begin
        let ts = tids view in
        let next =
          match List.find_opt (fun tid -> tid > !current) ts with
          | Some tid -> tid
          | None -> List.hd ts
        in
        current := next;
        used := 1;
        next
      end)
