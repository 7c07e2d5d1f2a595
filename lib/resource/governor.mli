(** Per-trial resource governor: logical budgets and the graceful
    degradation ladder.

    A governor meters the {e logical} size of detector analysis state —
    history entries, vector-clock messages, read-share cells — against a
    per-trial budget.  When the budget trips, the owning trial does not
    die: the governor steps down a deterministic degradation ladder

    {v Full  ->  Sampled  ->  Lockset_only v}

    and notifies its subscribers (the detectors), which compact their
    state to fit the new rung and keep going.  The trial completes with
    results explicitly labeled {e degraded}.

    {2 Why logical counters}

    Every result-affecting decision a governor makes is keyed off entry
    counts and insertion-order epochs — never wall-clock time or raw byte
    sizes.  Entry counts are pure functions of the event stream, and the
    event stream is a pure function of (program, seed), so a degraded run
    is exactly as deterministic as a full-precision one: same seed, same
    ladder level, same compactions, same fingerprint, on any domain
    count.  Heap watermarks ({!Heap_watermark}) are the one physical
    trigger; they exist as a last-resort backstop (the engine polls
    [Gc.quick_stat] at its watchdog points) and are documented as
    {e not} determinism-preserving — OCaml domains share the major heap,
    so a watermark can fire at different logical points across runs. *)

(** The degradation ladder, most precise first. *)
type level =
  | Full  (** every detector at its configured precision *)
  | Sampled
      (** access histories capped at a few summaries with hash-picked
          victims, epoch-compacted clock and cell state: bounded, still
          happens-before-aware *)
  | Lockset_only
      (** vector clocks abandoned; detectors fall back to pure lockset
          reasoning (or freeze, for detectors with no lockset mode) *)

val level_to_string : level -> string
val level_of_string : string -> level option

(** What tripped a budget. *)
type trigger =
  | Entry_budget  (** logical state-entry budget exceeded *)
  | Heap_watermark  (** physical heap backstop (engine watchdog) *)
  | Injected  (** deterministic chaos fault ([Chaos.trips_budget]) *)

val trigger_to_string : trigger -> string
val trigger_of_string : string -> trigger option

exception Budget_stop of trigger
(** Raised by {!trip} (hence {!charge}) instead of degrading when the
    governor was created with [~no_degrade:true].  The trial sandbox
    ([Fuzzer.run_trial]) converts it into the existing
    [Budget_exhausted] outcome. *)

type t

(** Immutable view of a governor's state, for journals and reports. *)
type snapshot = {
  g_level : level;  (** final ladder level *)
  g_trigger : trigger option;  (** first trigger, [None] if never tripped *)
  g_trips : int;  (** total budget trips (re-compactions included) *)
  g_entries : int;  (** live charged entries at snapshot time *)
  g_peak : int;  (** high-water mark of charged entries *)
  g_evicted : int;  (** entries discarded by compaction *)
}

val create : ?max_entries:int -> ?no_degrade:bool -> unit -> t
(** [max_entries] is the logical state budget ([None] = unlimited: the
    governor only counts).  [no_degrade] converts the first trip into
    {!Budget_stop} instead of stepping down the ladder. *)

val unlimited : unit -> t
(** Accounting-only governor: never trips, level stays {!Full}. *)

val subscribe : t -> (level -> unit) -> unit
(** Register a compaction hook, called (in subscription order) whenever
    the governor settles on a rung — on every trip, including repeat
    trips at the bottom rung (re-compaction).  Hooks shed state and
    report what they dropped via {!evict}. *)

val charge : t -> int -> unit
(** Account [n] new state entries.  If the budget is exceeded, trips the
    ladder (which runs the compaction hooks, which must {!evict} enough
    to get back under budget). *)

val credit : t -> int -> unit
(** Account [n] entries released in the ordinary course of analysis
    (supersession, collapse to a cheaper representation). *)

val evict : t -> int -> unit
(** Account [n] entries discarded by a compaction hook: a {!credit}
    that is also counted in [g_evicted]. *)

val trip : t -> trigger -> unit
(** Force a budget trip: step down one rung (or re-compact at the
    bottom) and notify subscribers; with [no_degrade], raise
    {!Budget_stop}.  Used by the heap-watermark backstop and by chaos
    injection. *)

val heap_hook : t -> unit -> bool
(** The engine watchdog's heap-watermark hook ([Engine.deadline
    ?heap_hook]) for a governed run: a crossing {!trip}s the governor
    with [Heap_watermark] and returns [true] (absorbed, keep running
    lighter) until the ladder is at {!Lockset_only}, where it returns
    [false] so the run cancels. *)

val level : t -> level
val entries : t -> int

val budget : t -> int option
(** The configured entry budget; compaction hooks shed to half of it. *)

val degraded : t -> bool
(** The governor ever tripped (level below {!Full} or a bottom-rung
    re-compaction occurred). *)

val snapshot : t -> snapshot
