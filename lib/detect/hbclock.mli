(** Happens-before clock builder: tracks the vector clocks of a stream's
    threads under a configurable edge policy and names every event by its
    epoch.

    [lock_edges = false] gives the *weak* relation of hybrid detection
    (paper §2.1: program order + the SND/RCV messages of thread start,
    join and notify→wait — deliberately blind to lock ordering, which is
    what makes hybrid predictive and imprecise); [lock_edges = true] adds
    release→acquire edges, giving the classical precise happens-before
    relation of Schonberg-style detectors [44].

    {2 Why an epoch is enough}

    Every event ticks its own thread's component, and clocks only travel
    by joining snapshots of whole thread clocks.  So for an event [e] of
    thread [t] with epoch [c] and full clock [V_e], and any later point
    of thread [u] with clock [C_u]:
    - [V_e ≤ C_u] iff [c ≤ C_u[t]] — a component [t] of at least [c]
      can only have come, through joins, from a snapshot of [t]'s clock
      taken at or after [e], and such a snapshot is [≥ V_e];
    - [C_u ≤ V_e] never holds for [u ≠ t] when [C_u] is taken at a later
      event of [u]: that event's tick makes [C_u[u]] exceed anything [u]
      had published when [e] happened.
    Hence the full-clock test "[e1] and [e2] are concurrent" on a stored
    [e1] and a fresh [e2] of another thread is exactly
    [not (hb_before ~tid:t1 ~clock:c1 ~now_tid:t2)] (checked against the
    full-clock predicate by a differential property in the test suite). *)

open Rf_events

type t

val create : ?governor:Rf_resource.Governor.t -> lock_edges:bool -> unit -> t
(** [governor] meters the clock tables (one logical entry per thread,
    per pending SND message, and per lock-release clock) against the
    shared trial budget.  On degradation the oldest (lowest-id) half of
    the pending message clocks is evicted; a matching RCV then simply
    contributes no edge, which can only weaken the happens-before
    relation — degraded runs over-approximate concurrency, never
    invent false orderings. *)

val feed : t -> Event.t -> int
(** Process one event (in trace order) and return its epoch: the event's
    own-thread clock component, which is at least 1 and strictly
    increases along each thread. *)

val hb_before : t -> tid:int -> clock:int -> now_tid:int -> bool
(** [hb_before t ~tid ~clock ~now_tid] — the event of thread [tid] with
    epoch [clock] happens-before-or-equals the current point of thread
    [now_tid] (its last fed event).  Epoch 0 precedes everything. *)

val msg_evictions : t -> int
(** Pending message clocks dropped by governor compaction. *)
