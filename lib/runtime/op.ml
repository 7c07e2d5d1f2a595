(** Pending operations: the runtime's yield points.

    Every shared-memory access and synchronization operation of a model
    program is performed as an OCaml effect carrying an ['a Op.t].
    Performing the effect suspends the thread *at* the pending operation —
    before it takes effect — which is exactly the hook RaceFuzzer needs: the
    scheduler can inspect [NextStmt(s, t)] (the pending site) and, for
    memory operations, the *dynamic* address about to be touched, and decide
    to postpone the thread simply by not resuming it (paper §2.2,
    Algorithms 1 and 2).

    The operation's side effect happens when the engine later executes the
    suspended thread, which serializes the whole run: at any moment at most
    one thread is between yield points, matching the paper's execution
    model. *)

open Rf_util

(** Model-level exceptions, mirroring their Java counterparts. *)
exception Interrupted
exception Illegal_monitor_state of string
exception Model_error of string
exception Concurrent_modification of string
exception No_such_element of string

(** Info carried by a pending memory access. *)
type mem = { site : Site.t; loc : Loc.t; access : Rf_events.Event.access }

type 'a t =
  | Mem : mem -> unit t
  | Acquire : Lock.t * Site.t -> unit t
  | Release : Lock.t * Site.t -> unit t
  | Wait : Lock.t * Site.t -> unit t
      (** entry into [o.wait()]: releases the monitor, parks in the wait set *)
  | Reacquire : Lock.t * int * bool * Site.t -> unit t
      (** engine-internal: a notified/interrupted waiter re-contending for the
          monitor at saved depth; the flag records a pending
          [InterruptedException] to deliver after reacquisition *)
  | Notify : Lock.t * bool * Site.t -> unit t  (** [true] = notifyAll *)
  | Fork : string * (unit -> unit) -> Handle.t t
  | Join : Handle.t * Site.t -> unit t
  | Interrupt : Handle.t * Site.t -> unit t
  | Sleep : Site.t -> unit t
  | Pause : unit t
      (** safepoint: a pure scheduling point with no event — inserted by
          the RFL interpreter at loop back-edges and function entries so
          that a thread computing on locals only cannot starve the
          cooperative scheduler (the analogue of JVM preemption at
          backward branches) *)

type _ Effect.t += Eff : 'a t -> 'a Effect.t

let perform (op : 'a t) : 'a = Effect.perform (Eff op)

(* A memory access that needs no scheduling decision (under
   [Engine.Sync_and], one at an unwatched site) runs inside the thread's
   fiber: the engine installs, per domain, a hook that executes such an
   access in place and answers [true]; any other access is performed as
   an effect and parks the thread.  Outside an engine the hook answers
   [false], so the effect is unhandled as before. *)
let no_hook (_ : Site.t) (_ : Loc.t) (_ : Rf_events.Event.access) = false
let mem_hook = Domain.DLS.new_key (fun () -> no_hook)

let mem site loc access =
  if not ((Domain.DLS.get mem_hook) site loc access) then
    perform (Mem { site; loc; access })

(** Type-erased view of a pending operation, exposed to strategies. *)
type pend =
  | P_start
  | P_pause
  | P_mem of mem
  | P_acquire of { lock : int; site : Site.t }
  | P_release of { lock : int; site : Site.t }
  | P_wait of { lock : int; site : Site.t }
  | P_reacquire of { lock : int; site : Site.t }
  | P_notify of { lock : int; all : bool; site : Site.t }
  | P_fork of { child_name : string }
  | P_join of { target : int; site : Site.t }
  | P_interrupt of { target : int; site : Site.t }
  | P_sleep of { site : Site.t }

let pend_of (type a) (op : a t) : pend =
  match op with
  | Mem m -> P_mem m
  | Acquire (l, site) -> P_acquire { lock = Lock.id l; site }
  | Release (l, site) -> P_release { lock = Lock.id l; site }
  | Wait (l, site) -> P_wait { lock = Lock.id l; site }
  | Reacquire (l, _, _, site) -> P_reacquire { lock = Lock.id l; site }
  | Notify (l, all, site) -> P_notify { lock = Lock.id l; all; site }
  | Fork (name, _) -> P_fork { child_name = name }
  | Join (h, site) -> P_join { target = Handle.tid h; site }
  | Interrupt (h, site) -> P_interrupt { target = Handle.tid h; site }
  | Sleep site -> P_sleep { site }
  | Pause -> P_pause

let pend_site = function
  | P_start | P_pause | P_fork _ -> None
  | P_mem { site; _ }
  | P_acquire { site; _ }
  | P_release { site; _ }
  | P_wait { site; _ }
  | P_reacquire { site; _ }
  | P_notify { site; _ }
  | P_join { site; _ }
  | P_interrupt { site; _ }
  | P_sleep { site } ->
      Some site

let pend_mem = function P_mem m -> Some m | _ -> None

(** Synchronization (non-memory) pending operations; the paper restricts
    thread switches to these plus the racing statements (§4, citing [31]). *)
let pend_is_sync = function P_mem _ -> false | _ -> true

let pp_pend ppf =
  let open Rf_events in
  function
  | P_start -> Fmt.string ppf "start"
  | P_pause -> Fmt.string ppf "pause"
  | P_mem { site; loc; access } ->
      Fmt.pf ppf "%a %a @@ %a" Event.pp_access access Loc.pp loc Site.pp site
  | P_acquire { lock; site } -> Fmt.pf ppf "acquire L%d @@ %a" lock Site.pp site
  | P_release { lock; site } -> Fmt.pf ppf "release L%d @@ %a" lock Site.pp site
  | P_wait { lock; site } -> Fmt.pf ppf "wait L%d @@ %a" lock Site.pp site
  | P_reacquire { lock; site } -> Fmt.pf ppf "reacquire L%d @@ %a" lock Site.pp site
  | P_notify { lock; all; site } ->
      Fmt.pf ppf "%s L%d @@ %a" (if all then "notifyAll" else "notify") lock Site.pp site
  | P_fork { child_name } -> Fmt.pf ppf "fork %s" child_name
  | P_join { target; site } -> Fmt.pf ppf "join t%d @@ %a" target Site.pp site
  | P_interrupt { target; site } -> Fmt.pf ppf "interrupt t%d @@ %a" target Site.pp site
  | P_sleep { site } -> Fmt.pf ppf "sleep @@ %a" Site.pp site
