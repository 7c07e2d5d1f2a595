(** Deterministic pseudo-random number generation (SplitMix64).

    All engine nondeterminism draws from one seeded stream, which is what
    makes whole executions replayable from their seed — RaceFuzzer's
    record-free replay (paper §2.2). *)

type t
(** A mutable generator. *)

val create : int -> t
(** [create seed] — a fresh generator; equal seeds yield equal streams. *)

val of_int64 : int64 -> t
(** Resume a generator from a saved {!state}. *)

val copy : t -> t
(** An independent generator that continues the same stream. *)

val state : t -> int64
(** Current internal state, for checkpointing.  Until the next draw it
    returns the very value {!of_int64} or {!set_state} was given (or that
    it returned last), so a checkpoint taken right after a restore shares
    the restored box. *)

val set_state : t -> int64 -> unit
(** Rewind/forward the generator to a saved {!state} in place.  Schedule
    replay ({!Rf_replay}) restores the recorded post-decision state at
    every switch point so engine-internal draws (notify target selection)
    consume exactly the stream the recorded run consumed. *)

val next_int64 : t -> int64
(** Next raw 64-bit output; advances the state.  [int], [bool] and
    [float] draw without allocating. *)

val split : t -> t
(** A statistically independent child generator seeded from [t]. *)

val bool : t -> bool
(** Fair coin — Algorithm 1's random race resolution. *)

val int : t -> int -> int
(** [int t bound] — uniform in [\[0, bound)].  Raises [Invalid_argument]
    when [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice.  Raises [Invalid_argument] on the empty list. *)

val pick_arr : t -> 'a array -> 'a
(** Uniform choice from an array.  Raises on empty. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pp : Format.formatter -> t -> unit
