(** Happens-before clock builder — see the interface for the edge
    policies and why an event's epoch decides ordering exactly.

    Clocks are mutable arrays: incoming edges join in place, a SND
    snapshots a copy (the sender keeps ticking), and a release overwrites
    the lock's own clock ([L_m := C_t], as in FastTrack), so the only
    per-event allocation is a message snapshot.  State growth is
    dominated by [msgs] (one clock per SND, never reclaimed: any future
    RCV may still match it); a governor trip evicts the lowest-id half,
    and an evicted message's RCV contributes no edge — degraded runs can
    only over-report concurrency. *)

open Rf_events
open Rf_vclock
open Rf_resource

type t = {
  lock_edges : bool;
  governor : Governor.t option;
  mutable threads : Vclock.t array;  (* by tid; [absent] until first event *)
  msgs : (int, Vclock.t) Hashtbl.t;
  lock_release : (int, Vclock.t) Hashtbl.t;
  mutable msg_evictions : int;
}

(* Sentinel for threads not seen yet; never written. *)
let absent = Vclock.create ()

let charge t n = match t.governor with Some g -> Governor.charge g n | None -> ()

(* Shed the lowest-id half of the message clocks.  Deterministic: the
   surviving set depends only on the key set, never on hash order. *)
let compact_msgs t =
  let n = Hashtbl.length t.msgs in
  if n > 1 then begin
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.msgs [] in
    let keys = List.sort compare keys in
    let drop = n / 2 in
    List.iteri (fun i k -> if i < drop then Hashtbl.remove t.msgs k) keys;
    t.msg_evictions <- t.msg_evictions + drop;
    match t.governor with Some g -> Governor.evict g drop | None -> ()
  end

let create ?governor ~lock_edges () =
  let t =
    {
      lock_edges;
      governor;
      threads = Array.make 16 absent;
      msgs = Hashtbl.create 64;
      lock_release = Hashtbl.create 16;
      msg_evictions = 0;
    }
  in
  (match governor with
  | Some g -> Governor.subscribe g (fun _level -> compact_msgs t)
  | None -> ());
  t

let msg_evictions t = t.msg_evictions

let clock_of t tid =
  if tid < Array.length t.threads then Array.unsafe_get t.threads tid else absent

let hb_before t ~tid ~clock ~now_tid = clock <= Vclock.get (clock_of t now_tid) tid

let feed t ev =
  let tid = Event.tid ev in
  let c = clock_of t tid in
  let fresh = c == absent in
  let c = if fresh then Vclock.create () else c in
  (* Incoming edges join into the thread clock before the event ticks. *)
  (match ev with
  | Event.Rcv { msg; _ } -> (
      match Hashtbl.find_opt t.msgs msg with
      | Some m -> Vclock.join c m
      | None -> () (* unmatched (or evicted) receive: no edge *))
  | Event.Acquire { lock; _ } when t.lock_edges -> (
      match Hashtbl.find_opt t.lock_release lock with
      | Some r -> Vclock.join c r
      | None -> ())
  | _ -> ());
  Vclock.tick c tid;
  if fresh then begin
    let n = Array.length t.threads in
    if tid >= n then begin
      let a = Array.make (max (tid + 1) (2 * n)) absent in
      Array.blit t.threads 0 a 0 n;
      t.threads <- a
    end;
    (* Charged after the join: a trip here may evict messages, but never
       the one this event has already received. *)
    charge t 1;
    t.threads.(tid) <- c
  end;
  (* Outgoing edges capture the thread clock after the tick. *)
  (match ev with
  | Event.Snd { msg; _ } ->
      if not (Hashtbl.mem t.msgs msg) then charge t 1;
      Hashtbl.replace t.msgs msg (Vclock.copy c)
  | Event.Release { lock; _ } when t.lock_edges -> (
      match Hashtbl.find_opt t.lock_release lock with
      | Some r -> Vclock.assign r c
      | None ->
          charge t 1;
          Hashtbl.replace t.lock_release lock (Vclock.copy c))
  | _ -> ());
  Vclock.get c tid
