(** Statement sites: the static program statements over which races are
    defined — the paper counts "distinct pairs of statements" (§5.2).

    Sites are interned in a global, mutex-protected registry: constructing
    the same (file, line, col, label) twice yields the same site, so racing
    pairs are stable across runs, seeds, and domains. *)

type t

val make : ?file:string -> ?line:int -> ?col:int -> string -> t
(** [make ~file ~line ~col label] — intern a site.  Defaults place embedded
    model code in the pseudo-file ["<model>"].  Model programs call it on
    every operation: a site already interned is usually found without
    taking the registry's lock and without allocating. *)

val id : t -> int
val file : t -> string
val line : t -> int
val col : t -> int
val label : t -> string

val find_by_id : int -> t option

(** {2 Interning priority}

    Ids follow interning order, and pair orientation ({!Pair.fst}), pair
    labels and every order campaign results are printed or fingerprinted
    in follow ids.  When phase-2 trials run while phase 1 is still
    executing, a trial must therefore never be the first to intern a site:
    the ids must be the ones phase 1 alone would hand out. *)

val with_priority : (unit -> 'a) -> 'a
(** [with_priority f] runs [f] on the calling domain; until it returns or
    raises, a {!make} on any other domain that misses the registry waits
    instead of interning, until the holder interns that site (the waiter
    then gets the holder's site) or [f] ends.  Hits never wait.  A second
    domain's [with_priority] waits for the first; re-entering it on the
    holding domain is an [Invalid_argument]. *)

val waiting : unit -> int
(** Domains currently waiting in {!make} for a {!with_priority} section
    to end. *)

val stalled : unit -> float
(** Wall-clock seconds the calling domain has spent waiting in {!make}
    for {!with_priority} sections, in total.  The engine's wall-clock
    watchdog subtracts them, so the wait never cancels a trial. *)

val find_by_line : file:string -> line:int -> t list
(** All registered sites on one line, sorted — how the CLI resolves
    [--pair L1:L2] the way the paper's figures number statements.  Sites
    register on first execution, so callers warm the registry with a run. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Unordered statement pairs — the paper's "racing pair of statements"
    [RaceSet].  Construction normalizes order; reflexive pairs (a statement
    racing with itself across threads) are allowed. *)
module Pair : sig
  type site := t
  type t

  val make : site -> site -> t
  val fst : t -> site
  (** The smaller-id site. *)

  val snd : t -> site
  val mem : site -> t -> bool
  val other : site -> t -> site option
  (** The opposite component, or [None] if the site is not in the pair. *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string

  module Set : Set.S with type elt = t
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
