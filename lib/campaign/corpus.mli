(** A persistent cross-campaign corpus: every distinct error
    fingerprint, minimized reproduction schedule and degraded-run record
    a campaign produces accumulates in one directory, deduplicated
    across runs ([--corpus DIR]).

    {2 Layout}

    {v
    DIR/
      index.json          JSONL: sealed {"corpus":1} header, then one
                          sealed flat object per entry
      repro-<fp>.sched.json   error artifacts (copied or written here)
      trace-seed<N>.rfbt      phase-1 recordings an older build saved
    v}

    Older builds also stored their phase-1 binary recordings here as
    ["trace"] entries.  Nothing writes them any more; they still list,
    verify and revalidate, their files checked as opaque artifacts.

    Every index line is one flat object of the shared codec
    ({!Rf_util.Json}) sealed with the journal's FNV-1a CRC
    ({!Rf_util.Json.seal}), and updates go through {!Rf_util.Atomic_file}
    (write-tmp, flush, rename) — a campaign SIGKILLed mid-update leaves
    the previous index byte-intact and loadable, which {!verify} checks
    and the chaos tests exercise.

    {2 Deduplication}

    Entries are keyed by ([kind], [key]): an error by its fingerprint, a
    degraded-run record by (pair, seed, final level), an older build's
    trace by (target, seed).  Re-observing a known key bumps its [e_seen] count
    instead of appending — two consecutive campaigns over the same
    target converge to one entry per distinct artifact. *)

type entry = {
  e_kind : string;  (** ["error"], ["degraded"] or ["trace"] *)
  e_key : string;  (** dedup key, unique within the kind *)
  e_target : string;  (** workload name / RFL path; [""] if unknown *)
  e_pair : string;  (** racing pair label; [""] when not pair-specific *)
  e_seed : int;  (** witness seed; [-1] when not seed-specific *)
  e_file : string;
      (** artifact path relative to the corpus dir; [""] = record-only *)
  e_crc : string;
      (** FNV-1a hex of the artifact bytes ({!Rf_util.Fnv.hex63});
          [""] when there is no file *)
  e_seen : int;  (** campaigns that produced this entry (>= 1) *)
}

type summary = { cs_added : int; cs_deduped : int; cs_total : int }

val entry :
  kind:string ->
  key:string ->
  ?target:string ->
  ?pair:string ->
  ?seed:int ->
  unit ->
  entry
(** A record-only entry (no artifact file), [e_seen = 1]. *)

val ingest_file :
  dir:string ->
  kind:string ->
  key:string ->
  ?target:string ->
  ?pair:string ->
  ?seed:int ->
  src:string ->
  unit ->
  entry
(** Copy [src] into the corpus directory (no-op when it already lives
    there), seal its content CRC, and return the entry describing it.
    Creates [dir] and its missing parents. *)

val to_json : entry -> string
(** The entry as one unsealed flat JSON object: the index line without
    its seal, and one line of [corpus list --json]. *)

val load : string -> entry list
(** Entries of [DIR/index.json], insertion order; [[]] when the index
    does not exist.  Tolerant: checksum-bad or torn lines are skipped
    (the crash-recovery read — {!verify} is the strict one). *)

val update : dir:string -> entry list -> summary
(** Merge entries into the corpus: known ([kind], [key]) pairs bump
    [e_seen], new ones append; then atomically rewrite the index.
    Creates [dir], its missing parents and the index on first use. *)

val verify : dir:string -> (int, string list) result
(** Strict integrity check: index header present, every line
    CRC-sealed and well-formed, every referenced artifact file present
    with matching content CRC, no duplicate ([kind], [key]).  [Ok n] is
    the entry count; [Error problems] lists every violation. *)
