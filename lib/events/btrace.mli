(** Compact binary execution traces: the recording half of the offline
    detection pipeline.

    The format is built for the engine hot path.  A {!writer} appends
    fixed-width, id-keyed records into a [Buffer]-backed block arena — no
    [Event.t] is allocated, no lockset is snapshotted — so a
    detector-free engine run can record at a small fraction of the cost
    of feeding an inline detector.  The sealed recording is then decoded (possibly several
    times, by several detectors, possibly sharded by memory location)
    into the ordinary {!Event.t} stream.

    {2 Wire format (version 1)}

    {v
    header   := "RFBT" u16:version
    stream   := header frame* trailer
    frame    := u32:len payload[len] u64:fnv1a64(payload)   (len > 0)
    trailer  := u32:0 u64:event_count
    payload  := record*
    record   := tag:u8 fields...
    v}

    All integers are little-endian; strings are [u32] length-prefixed
    bytes.  Records are either {e definitions} — a site, location or
    lockset is defined once, on first use, and referenced by id
    afterwards — or {e events}, whose fields are ids and small scalars
    only (a [Mem] record is 17 bytes).  Frames are sealed with an
    FNV-1a-64 checksum like the campaign journal, so torn or bit-flipped
    recordings are rejected with a precise error instead of decoding
    into garbage.  The trailer (a zero frame length, impossible for a
    real frame, plus the sealed event count) makes truncation at a frame
    boundary detectable too: frames are self-delimiting, so without it a
    recording missing its tail frames would decode as a valid shorter
    stream.

    Sites are re-interned on decode from their structural key
    (file, line, col, label), so a recording read back in a fresh
    process compares site-equal with live detection. *)

open Rf_util

exception Corrupt of string
(** Raised on malformed input: bad magic, unsupported version, truncated
    frame, checksum mismatch, unknown record tag, or a reference to an
    undefined site/location/lockset id.  The message pinpoints the
    offending byte offset. *)

val version : int

type t
(** A sealed recording. *)

(** {1 Recording} *)

type writer

val writer : ?block:int -> unit -> writer
(** A fresh recording.  [block] (default 64 KiB) is the frame
    granularity: records accumulate in a scratch block that is sealed
    into a checksummed frame whenever it fills. *)

val intern_lockset : writer -> Lockset.t -> int
(** Intern a lockset, emitting its definition record if new.  Callers on
    a hot path should cache the returned id across events — the engine
    re-interns only when a thread's lockset actually changes. *)

val mem :
  writer ->
  tid:int ->
  site:Site.t ->
  loc:Loc.t ->
  access:Event.access ->
  lockset_id:int ->
  unit
(** Append one memory access.  [lockset_id] must come from
    {!intern_lockset} on this writer. *)

val acquire : writer -> tid:int -> lock:int -> site:Site.t -> unit
val release : writer -> tid:int -> lock:int -> site:Site.t -> unit
val snd_ : writer -> tid:int -> msg:int -> reason:Event.sync_reason -> unit
val rcv : writer -> tid:int -> msg:int -> reason:Event.sync_reason -> unit
val start : writer -> tid:int -> name:string -> unit
val exit_ : writer -> tid:int -> unit

val add : writer -> Event.t -> unit
(** Generic append: dispatches to the specialized emitters, interning
    the event's lockset on the spot.  Convenience for tests and
    {!of_trace}; the engine uses the specialized forms directly. *)

val written : writer -> int
(** Events appended so far. *)

val seal : writer -> t
(** Flush the open block and freeze the recording.  The writer must not
    be used afterwards. *)

(** {1 Sealed recordings} *)

val byte_size : t -> int

val iter : ?keep_mem:(Loc.t -> bool) -> (Event.t -> unit) -> t -> unit
(** Decode in recording order.  [keep_mem] filters {e memory} events by
    their dynamic location before the event is materialized — the shard
    predicate of the offline detector; synchronization events are always
    delivered (clock state is stream-global).  May raise {!Corrupt} on a
    recording that bypassed {!of_string} validation. *)

val length : t -> int
(** Event count (decodes the recording; O(n)). *)

val to_trace : t -> Trace.t
val of_trace : Trace.t -> t

val to_string : t -> string

val of_string : string -> t
(** Validates the whole recording — header, framing, checksums, record
    structure and id references — raising {!Corrupt} on the first
    defect.  A returned [t] always decodes cleanly. *)

val save : string -> t -> unit
val load : string -> t
