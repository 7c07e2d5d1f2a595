(** Scheduling strategies.

    At every switch point the engine shows the strategy the *enabled*
    threads with their pending operations and the run's PRNG; the strategy
    answers with the tid to execute.  Implementations carry state in their
    closures: the three phase-2 strategies (races, deadlocks, atomicity)
    keep their postponed sets in one shared core, [Racefuzzer.Postpone].
    All randomness must come from the view's PRNG to preserve
    seed-replayability.  [choose] runs at every switch, so the built-in
    strategies draw by counting and indexing [enabled] rather than by
    building filtered copies of it. *)

open Rf_util

type entry = { tid : int; tname : string; mutable pend : Op.pend }
(** One thread's row.  The engine keeps one row per thread for the
    thread's whole life and updates [pend] in place whenever the thread
    parks at a new operation. *)

type view = {
  step : int;
      (** operations executed so far, including memory accesses that ran
          without a consultation (unwatched sites under [Sync_and]) *)
  enabled : entry list;
      (** never empty; ascending tid order.  The engine rebuilds the list
          only when some thread's enabledness changes, so consecutive
          consultations may see the same list, with rows updated in place.
          A strategy must read the entries inside [choose] and must not
          keep an entry (or the list) past the call. *)
  prng : Prng.t;
}

type t = { sname : string; choose : view -> int }

val name : t -> string

val make : name:string -> (view -> int) -> t
(** [choose] must return the tid of some entry in [view.enabled]. *)

val tids : view -> int list

val random : unit -> t
(** Uniform choice among enabled threads — the paper's "simple random
    scheduler" baseline (Table 1, column "Simple"). *)

val round_robin : unit -> t
(** Fair deterministic rotation. *)

val run_until_block : unit -> t
(** Keep the current thread running until it blocks: a fully
    non-preemptive scheduler. *)

val timesliced : ?quantum:int -> unit -> t
(** Preemptive fair scheduling with a fixed quantum — our model of a JVM's
    default scheduler on a lightly loaded machine, under which the paper's
    Figure 2 window virtually never lines up. *)
