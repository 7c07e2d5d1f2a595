(** The one JSON codec for every artifact on disk.

    The campaign journal ([Rf_campaign.Event_log]), the corpus index
    ([Rf_campaign.Corpus]), the serve ledger ([Rf_campaign.Service]),
    [corpus list --json] and [rf-schedule/1] files ([Rf_replay.Schedule])
    all read and write through this module.  The line-oriented artifacts
    are JSONL: one flat object per line (scalar fields only), each line
    sealed with a checksum field.  Schedules are one nested document
    whose writer lays its lines out by hand with {!escape} and reads
    back through {!parse}.

    The parser is strict: one value spanning the whole input (surrounding
    whitespace allowed), exact literals, no trailing bytes.  Strings
    take the escapes {!escape} writes; a [\uXXXX] escape above [0x7f] is
    kept as its escape text.  Numbers with a fraction or exponent are
    {!F}, all others {!I}. *)

type t =
  | I of int
  | F of float  (** rendered with six decimals ([%.6f]) *)
  | S of string
  | B of bool
  | Null
  | A of t list
  | O of (string * t) list  (** field order preserved *)

exception Error of string
(** Malformed input; the message gives the byte offset. *)

(** {1 Writing} *)

val escape : string -> string
(** The body of a JSON string literal: quote, backslash, [\n], [\t] and
    [\r] get their short escapes, other bytes below [0x20] [\u00XX], and
    every other byte (non-ASCII included) is written raw. *)

val render_flat : (string * t) list -> string
(** One flat JSON object, unsealed, no newline; compose with {!seal} for
    a durable line.  Raises [Invalid_argument] on an {!A} or {!O} field:
    the one nested format, [rf-schedule/1], lays itself out by hand. *)

(** {1 Reading} *)

val parse : string -> t
(** Raises {!Error}. *)

val parse_flat : string -> (string * t) list option
(** The fields of a flat object ({!render_flat}'s inverse); [None] for
    malformed input, for anything but an object, and for an object with
    an array or object field. *)

(** {1 Line seals} *)

val seal : string -> string
(** Append a ["crc"] field, the {!Fnv.hex63} digest of the unsealed
    line, before the closing brace. *)

type seal_status =
  | Sealed_ok  (** checksum present and matching *)
  | Sealed_bad  (** checksum present but wrong: corrupted in place *)
  | Unsealed  (** no checksum (a journal line older than schema v3) *)

val check_seal : string -> seal_status

(** {1 Files and fields} *)

val read_lines : string -> string list
(** Every line of a file, without newlines.  Raises [Sys_error] if it
    cannot be opened. *)

val str : (string * t) list -> string -> string option
val int : (string * t) list -> string -> int option
val bool : (string * t) list -> string -> bool option

val num : (string * t) list -> string -> float option
(** A float field; an integer reads as its float. *)
