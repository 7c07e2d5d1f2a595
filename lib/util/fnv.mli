(** FNV-1a-64 — the one hash used to seal every durable artifact.

    The campaign journal, IPC frames, chaos keys, reservoir victim picks
    and the corpus index all seal or key their payloads with the same
    polynomial; this module is the single definition.  Two presentations
    are exposed:

    - {!hash64}: the full 64-bit digest, used for binary frame seals
      where the checksum is stored as a little-endian [int64];
    - the [*63] family: the historical native-[int] computation from a
      63-bit-truncated offset basis.  The journal [crc] field ({!hex63}),
      chaos fault keys and detector reservoir picks were written against
      this arithmetic before the module existed and must stay bit-for-bit
      stable, so the folds are exposed for callers to thread state
      through.  New binary formats should use {!hash64}. *)

val offset : int64
(** [0xCBF29CE484222325L], the FNV-1a-64 offset basis. *)

val prime : int64
(** [0x100000001B3L], the FNV-1a-64 prime. *)

val hash64 : string -> int64
(** Digest of the whole string. *)

val basis63 : int
(** The offset basis truncated to OCaml's 63-bit [int]. *)

val prime63 : int
(** The FNV-1a-64 prime as a native [int]. *)

val fold_byte63 : int -> int -> int
(** [fold_byte63 h byte] absorbs the low 8 bits of [byte] into [h]. *)

val fold_int63 : int -> int -> int
(** Absorbs the 8 little-endian bytes of an [int] (arithmetic shift, so
    negative values mix their sign bits rather than truncating). *)

val fold_string63 : int -> string -> int
(** Absorbs every byte of the string. *)

val mask63 : int -> int
(** Masks a fold result to a non-negative [int] ([land max_int]). *)

val hex63 : string -> string
(** Whole-string 63-bit digest as 16 lowercase hex digits — the
    historical journal [crc] encoding. *)
