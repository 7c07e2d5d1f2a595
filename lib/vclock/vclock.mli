(** Vector clocks for happens-before reasoning (paper §2.1: the relation
    "is done by maintaining a vector clock with every thread").

    A clock maps thread ids to logical timestamps; absent entries read 0.
    Clocks are mutable [int array]s indexed by thread id and grown on
    demand, so the per-event operations ({!tick}, {!join}) touch memory
    in place instead of allocating a new clock.  [join] is the least
    upper bound of the [leq] partial order and {!create}'s empty clock its
    unit (laws are property-tested). *)

type t

val create : unit -> t
(** A fresh all-zero clock. *)

val get : t -> int -> int
(** [get c tid] — [tid]'s component (0 when absent). *)

val tick : t -> int -> unit
(** Increment one component in place: a thread takes a local step. *)

val join : t -> t -> unit
(** [join c o] sets [c] to the componentwise maximum of [c] and [o] —
    receiving knowledge of another clock. *)

val copy : t -> t
(** An independent snapshot (trailing zero components trimmed). *)

val assign : t -> t -> unit
(** [assign c o] overwrites [c] with [o]'s components, reusing [c]'s
    storage when it is large enough. *)

val leq : t -> t -> bool
(** [leq a b] — [a] happens-before-or-equals [b]. *)

val equal : t -> t -> bool

val of_list : (int * int) list -> t
val to_list : t -> (int * int) list
(** Non-zero components, by increasing thread id. *)

val pp : Format.formatter -> t -> unit
