(** Recorded schedules: the self-contained, replayable artifact of one
    engine run.

    A schedule is the sequence of scheduling decisions a strategy made —
    one step per strategy consultation, carrying the chosen tid, a
    {e stability key} for the operation the chosen thread was about to
    execute (op kind + statement site, never engine-internal ids), and the
    PRNG state left behind by the decision so engine-internal draws
    (notify target selection) replay bit-exactly.  Together with the
    run metadata (target program, seed, switch policy pair, step budget)
    that is everything needed to re-create the execution on a fresh
    engine — the replay literature's observation (Ronsse–De Bosschere;
    Guo et al., see PAPERS.md) that logging scheduling decisions suffices
    for deterministic replay.

    Schedules serialize to a versioned JSON file ([rf-schedule/1],
    conventionally [*.sched.json]); {!load} rejects version drift rather
    than guessing. *)

open Rf_util
open Rf_runtime

val version : string
(** The on-disk format tag, ["rf-schedule/1"]. *)

(** {1 Stability keys} *)

(** Process-independent identity of a statement site: exactly the fields
    {!Rf_util.Site.make} interns by, so a key re-interns to the same site
    in any process. *)
type site_key = { sk_file : string; sk_line : int; sk_col : int; sk_label : string }

val site_key : Site.t -> site_key
val intern_site : site_key -> Site.t

type kind =
  | Start
  | Pause
  | Read
  | Write
  | Acquire
  | Release
  | Wait
  | Reacquire
  | Notify
  | Notify_all
  | Fork
  | Join
  | Interrupt
  | Sleep

(** What the chosen thread was about to do: op kind plus its static site
    (sites are the stable coordinates races are defined over; dynamic ids
    like lock numbers or addresses can shift under shrinking edits). *)
type key = { k_kind : kind; k_site : site_key option }

val key_of_pend : Op.pend -> key
val equal_key : key -> key -> bool
val pp_key : Format.formatter -> key -> unit

(** {1 Steps and schedules} *)

type step = {
  st_tid : int;  (** the chosen thread *)
  st_key : key;  (** stability key of its pending operation *)
  st_rng : int64;  (** PRNG state {e after} the decision, restored on replay *)
}

type meta = {
  m_target : string;  (** workload name or RFL path; [""] when unknown *)
  m_seed : int;  (** engine seed of the recorded run *)
  m_pair : (site_key * site_key) option;
      (** the RaceSet under test; replay rebuilds the [Sync_and] policy
          from it, [None] meaning [Every_op] *)
  m_max_steps : int;
  m_steps : int;  (** engine steps of the recorded outcome *)
  m_error : string option;  (** {!error_fingerprint} of the recorded outcome *)
}

type t = { meta : meta; steps : step array }

val length : t -> int
(** Recorded decisions. *)

val switches : t -> int
(** Context switches inside the schedule: adjacent steps with different
    tids. *)

val with_steps : t -> step array -> t
val pair : t -> Site.Pair.t option
(** The recorded RaceSet, re-interned. *)

val equal : t -> t -> bool

(** {1 Error fingerprints} *)

val error_fingerprint : Outcome.t -> string option
(** Classify what went wrong, stably across processes: the first uncaught
    exception (constructor text plus the site it was raised at) or a
    deadlock (blocked sites).  [None] for clean runs — including timeouts
    and watchdog cancellations, which are budget artifacts, not program
    errors. *)

(** {1 Persistence} *)

exception Format_error of string
(** Unparseable JSON, missing or ill-typed fields, or a version other
    than {!version}. *)

val to_json : t -> string
(** The [rf-schedule/1] layout: one field per line, one step object per
    line, strings escaped by {!Rf_util.Json.escape}. *)

val of_json : string -> t
(** Reads through the shared strict parser ({!Rf_util.Json.parse}), so
    trailing bytes and malformed literals are errors.  Raises
    {!Format_error}. *)

val save : string -> t -> unit
(** Atomic: writes [path.tmp] then renames, so a crash mid-write leaves
    the previous artifact (or none), never a torn file. *)

val load : string -> t
(** Raises {!Format_error} (message prefixed with the file path, covering
    truncation and corruption) and [Sys_error] (unreadable file). *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** One-line summary: target, seed, length, switches, error. *)

val pp_narrative : Format.formatter -> t -> unit
(** The human-readable reproduction story: run metadata, then every
    decision with context-switch markers. *)
