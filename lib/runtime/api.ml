(** User-facing API for model programs.

    Model programs (workloads, collections, the DSL interpreter) express
    every shared access and synchronization through this module, which turns
    them into engine-visible yield points.  Purely thread-local computation
    (OCaml locals, plain refs that are provably unshared) needs no
    instrumentation — mirroring how the paper's tool instruments only
    bytecode touching shared state.

    Conventions:
    - every operation takes a [Site.t] naming the static statement, since
      racing pairs are reported at statement granularity;
    - these functions must run inside {!Engine.run}; performing them outside
      an engine raises [Effect.Unhandled]. *)

open Rf_util

exception Interrupted = Op.Interrupted
exception Illegal_monitor_state = Op.Illegal_monitor_state
exception Model_error = Op.Model_error
exception Concurrent_modification = Op.Concurrent_modification
exception No_such_element = Op.No_such_element

let site = Site.make

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)

let fork ?(name = "worker") body = Op.perform (Op.Fork (name, body))

let join ?(site = Site.make "join") h = Op.perform (Op.Join (h, site))

let interrupt ?(site = Site.make "interrupt") h =
  Op.perform (Op.Interrupt (h, site))

(** Abstract-time sleep: a single interruptible yield point. *)
let sleep ?(site = Site.make "sleep") () = Op.perform (Op.Sleep site)

(* ------------------------------------------------------------------ *)
(* Monitors                                                            *)

let lock ?(site = Site.make "lock") l = Op.perform (Op.Acquire (l, site))
let unlock ?(site = Site.make "unlock") l = Op.perform (Op.Release (l, site))

(** [sync l f] models [synchronized (l) { f () }]: the monitor is released
    however [f] exits, as in Java. *)
let sync ?site l f =
  lock ?site l;
  Fun.protect ~finally:(fun () -> unlock ?site l) f

let wait ?(site = Site.make "wait") l = Op.perform (Op.Wait (l, site))
let notify ?(site = Site.make "notify") l = Op.perform (Op.Notify (l, false, site))

let notify_all ?(site = Site.make "notifyAll") l =
  Op.perform (Op.Notify (l, true, site))

(* ------------------------------------------------------------------ *)
(* Shared memory                                                       *)

module Cell = struct
  type 'a t = { r : 'a ref; loc : Loc.t }

  (** A fresh heap cell, addressed as a one-field object. *)
  let make ?(name = "val") v = { r = ref v; loc = Loc.field (Loc.fresh_obj ()) name }

  (** A named global, addressed by name (DSL [shared] variables). *)
  let global name v = { r = ref v; loc = Loc.global name }

  let loc c = c.loc

  let read ~site c =
    Op.mem site c.loc Rf_events.Event.Read;
    !(c.r)

  let write ~site c v =
    Op.mem site c.loc Rf_events.Event.Write;
    c.r := v

  (** Unsynchronized read-modify-write (two separate accesses, as a model
      program's [x = x + 1] would compile to). *)
  let update ~rsite ~wsite c f =
    let v = read ~site:rsite c in
    write ~site:wsite c (f v)

  (** Peek without instrumentation — for assertions and reporting only;
      never use in model-program logic. *)
  let unsafe_peek c = !(c.r)

  let unsafe_poke c v = c.r := v
end

module Sarray = struct
  (* Elements live in one flat array, not a [ref] per cell: a 4096-cell
     table is then one block for the major heap to scan. *)
  type 'a t = { cells : 'a array; aid : int }

  let make n v = { cells = Array.make n v; aid = Loc.fresh_obj () }

  let init n f = { cells = Array.init n f; aid = Loc.fresh_obj () }

  let length a = Array.length a.cells

  let loc a i = Loc.elem a.aid i

  let get ~site a i =
    if i < 0 || i >= Array.length a.cells then
      raise (Model_error (Fmt.str "array index %d out of bounds [0,%d)" i (Array.length a.cells)));
    Op.mem site (loc a i) Rf_events.Event.Read;
    a.cells.(i)

  let set ~site a i v =
    if i < 0 || i >= Array.length a.cells then
      raise (Model_error (Fmt.str "array index %d out of bounds [0,%d)" i (Array.length a.cells)));
    Op.mem site (loc a i) Rf_events.Event.Write;
    a.cells.(i) <- v

  let unsafe_peek a i = a.cells.(i)
end

(** Convenience: raise a model assertion failure (the paper's ERROR
    statements). *)
let error msg = raise (Model_error msg)

let check ~msg cond = if not cond then error msg
