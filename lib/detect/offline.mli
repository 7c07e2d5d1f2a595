(** Offline detection over binary recordings: the detect half of the
    record-then-detect pipeline.

    A detector that runs inline taxes every engine step; run offline it
    reads a {!Rf_events.Btrace} recording instead, so the engine records
    detector-free and the (expensive) analysis replays after the fact —
    several detectors over one recording, optionally sharded by memory
    location across domains.

    {2 Sharding and determinism}

    Shard [k] of [n] sees {e every} synchronization event but only the
    memory events whose dynamic location hashes to [k] — clock state is a
    function of the sync stream alone, while access-history buckets are
    per-location, so giving a shard the full sync stream plus a
    location-disjoint slice of the accesses reproduces exactly the bucket
    contents and happens-before verdicts the inline detector computed for
    those locations.  (Vector clocks tick per {e visible} event, so a
    shard's counter values differ from inline ones; the order relations
    the detectors compare — "was this send issued before or after that
    access" — are preserved, which is all the verdicts read.)

    The merged result is therefore shard-count-independent: the union of
    the shards' race sets equals the inline pair set, deduplicated by
    statement pair and sorted canonically.  With one shard (the default)
    the event feed is the inline feed verbatim and the race list is
    byte-identical to inline detection, including report order.

    Resource governance composes per the caller's [make]: a shared
    governor meters the shards' combined state (run shards sequentially
    for determinism — the default); parallel sharding is for ungoverned
    runs.  Degraded offline runs are deterministic but not guaranteed
    shard-count-invariant, exactly as inline degradation is documented
    deterministic-but-level-dependent. *)

open Rf_util
open Rf_events

val shard_of_loc : shards:int -> Loc.t -> int
(** The shard owning a dynamic location: [Loc.hash mod shards]. *)

val feed_shard : shard:int -> shards:int -> Detector.t -> Btrace.t -> unit
(** Feed one recording into a detector as shard [shard] of [shards]:
    all sync events, plus the memory events owned by the shard. *)

val replay : (Event.t -> unit) -> Btrace.t list -> unit
(** Feed recordings, in order, unsharded — for stream consumers that are
    not location-decomposable ({!Atomicity} section tracking, custom
    listeners). *)

val detect :
  ?shards:int ->
  ?parallel:bool ->
  make:(unit -> Detector.t) ->
  Btrace.t list ->
  Race.t list
(** Run a fresh detector per shard over the recordings and merge.
    [shards] defaults to 1 (exact inline replay).  With [parallel] (only
    meaningful when [shards > 1]) shard 0 runs on the calling domain and
    every other shard on its own domain —
    the caller's [make] must then be safe to call concurrently, i.e. not
    close over a shared governor.  Merged races are deduplicated by
    statement pair and sorted by {!Site.Pair.compare}; with one shard
    the detector's own report order is preserved. *)

val detect_stats :
  ?shards:int ->
  ?parallel:bool ->
  make:(unit -> Detector.t) ->
  Btrace.t list ->
  Race.t list * Detector.stats
(** {!detect}, plus the detectors' merged end-of-run accounting.
    Locations partition across shards, so entries and memory events sum
    to the inline totals: the merged stats equal the inline detector's,
    shard-count-independently. *)
