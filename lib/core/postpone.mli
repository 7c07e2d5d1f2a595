(** The postponed set and the pick loop shared by the phase-2 strategies
    ({!Algo}, {!Deadlock_fuzzer}, {!Atom_fuzzer}): a thread about to run a
    statement of interest is parked until the strategy lets it go, threads
    parked longer than a timeout are released (the paper's monitor thread,
    §4), and when every enabled thread is parked a random one is released
    and run (§2.2).

    Nothing here allocates per consultation, and every draw uses the bound
    a filtered copy of the enabled list would give [Prng.pick], in the
    same order, so the schedule is a function of the seed alone. *)

open Rf_runtime

type t

val create : timeout:int option -> unit -> t
(** [timeout] is in engine steps ([view.step]); [None] disables livelock
    relief. *)

val mem : t -> int -> bool
(** Whether a tid is postponed. *)

val count : t -> int
(** Postponed threads, enabled or not. *)

val add : t -> int -> step:int -> unit
(** Postpone a thread from [step] on (re-postponing restarts its clock). *)

val remove : t -> int -> unit
(** Release a thread; no-op when it is not postponed. *)

val relieve : t -> step:int -> int
(** Release, in tid order, every thread postponed for more than the
    timeout at [step]; returns how many.  Scans the set only when its
    oldest entry may be due. *)

val retry : int
(** What a [decide] function returns after postponing the entry it was
    shown, to have {!pick} draw again. *)

val pick : t -> Strategy.view -> (Strategy.view -> Strategy.entry -> int) -> int
(** One consultation's pick loop.  Draws an enabled thread that is not
    postponed and asks [decide] for the tid to run, or {!retry}.  When
    every enabled thread is postponed, releases a uniformly drawn one and
    returns it without asking [decide]: an eviction, reported by
    {!evicted}.  Raises [Invalid_argument] if [view.enabled] is empty. *)

val evicted : t -> bool
(** Whether the last {!pick} ended in an eviction. *)
