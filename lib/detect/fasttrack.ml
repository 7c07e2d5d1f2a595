(** Epoch-optimized precise happens-before race detection, after FastTrack
    (Flanagan & Freund, PLDI 2009) — the standard answer to the overhead
    problem the paper attributes to happens-before detectors ("this
    technique has a very large runtime overhead as it needs to track every
    shared memory access", §1).

    Instead of a full vector clock per access, each location carries:
    - a write *epoch* [(tid, clock)] — the last write, which in race-free
      executions is totally ordered with everything that follows;
    - a read epoch, inflated on demand to a full read vector clock only
      while reads are concurrent (the "shared read" state).

    Race checks become O(1) epoch comparisons on the fast paths.  The
    detector reports exactly the races that {!Hb_precise} reports on the
    same trace (checked by an equivalence property in the test suite) while
    doing asymptotically less work.

    Analysis state is driven by the same happens-before clocks as the other
    detectors ({!Hbclock} with lock edges): an epoch is what
    {!Hbclock.feed} returns, and "epoch before the current access" is
    {!Hbclock.hb_before}.

    Under a resource governor each location cell and each slot of an
    inflated read vector is one charged entry.  Degradation semantics:
    at {b Sampled} and below, inflated read vectors are collapsed back
    to the epoch fast path (keeping only the newest read — concurrent
    older reads may be forgotten, trading recall for bounded state); at
    {b Lockset-only} the cell table is frozen — accesses to locations
    not yet tracked are ignored outright, so state stops growing
    entirely.  A trip also sweeps existing cells, deflating every
    [Rshared] table (order-independent, hence deterministic). *)

open Rf_util
open Rf_events
open Rf_resource

type epoch = { etid : int; eclock : int }

type read_state =
  | Rnone
  | Repoch of epoch * Site.t
  | Rshared of (int, int * Site.t) Hashtbl.t  (* tid -> clock, site *)

type cell = {
  mutable wr : (epoch * Site.t) option;
  mutable rd : read_state;
}

type t = {
  clocks : Hbclock.t;
  governor : Governor.t option;
  cells : cell Loc.Tbl.t;
  mutable races : Race.t list;
  mutable reported : Site.Pair.Set.t;
  mutable epoch_hits : int;  (** fast-path comparisons that sufficed *)
  mutable vc_ops : int;  (** slow-path full-clock operations *)
}

let charge t n = match t.governor with Some g -> Governor.charge g n | None -> ()
let credit t n = match t.governor with Some g -> Governor.credit g n | None -> ()
let evict t n = match t.governor with Some g -> Governor.evict g n | None -> ()

let level t =
  match t.governor with Some g -> Governor.level g | None -> Governor.Full

(* Deflate every inflated read vector back to the epoch fast path.
   Collapsing all of them is independent of hashtable iteration order,
   so this is safe to run from a governor hook. *)
let deflate_reads t =
  Loc.Tbl.iter
    (fun _loc c ->
      match c.rd with
      | Rshared tbl ->
          evict t (Hashtbl.length tbl);
          c.rd <- Rnone
      | Rnone | Repoch _ -> ())
    t.cells

let create ?governor () =
  let t =
    {
      clocks = Hbclock.create ?governor ~lock_edges:true ();
      governor;
      cells = Loc.Tbl.create 256;
      races = [];
      reported = Site.Pair.Set.empty;
      epoch_hits = 0;
      vc_ops = 0;
    }
  in
  (match governor with
  | Some g -> Governor.subscribe g (fun _level -> deflate_reads t)
  | None -> ());
  t

(* At the bottom rung the cell table is frozen: unseen locations return
   no cell and their accesses go untracked. *)
let cell t loc =
  match Loc.Tbl.find_opt t.cells loc with
  | Some c -> Some c
  | None ->
      if level t = Governor.Lockset_only then None
      else begin
        let c = { wr = None; rd = Rnone } in
        Loc.Tbl.add t.cells loc c;
        charge t 1;
        Some c
      end

let report t ~loc ~tids ~accesses s1 s2 =
  let pair = Site.Pair.make s1 s2 in
  if not (Site.Pair.Set.mem pair t.reported) then begin
    t.reported <- Site.Pair.Set.add pair t.reported;
    t.races <- Race.make ~pair ~loc ~tids ~accesses :: t.races
  end

(* epoch [(etid, eclock)] happened-before (or equals) the current point
   of [tid] *)
let leq t etid eclock tid =
  Hbclock.hb_before t.clocks ~tid:etid ~clock:eclock ~now_tid:tid
let epoch_leq t e tid = leq t e.etid e.eclock tid

let rec feed t ev =
  let clock = Hbclock.feed t.clocks ev in
  match ev with
  | Event.Mem { tid; site; loc; access = Event.Read; _ } -> (
      match cell t loc with
      | None -> ()
      | Some c -> (
          (* write-read race? *)
          (match c.wr with
          | Some (we, wsite) when we.etid <> tid && not (epoch_leq t we tid) ->
              report t ~loc ~tids:(we.etid, tid)
                ~accesses:(Event.Write, Event.Read) wsite site
          | _ -> t.epoch_hits <- t.epoch_hits + 1);
          let my = { etid = tid; eclock = clock } in
          match c.rd with
          | Rnone -> c.rd <- Repoch (my, site)
          | Repoch (prev, psite) ->
              if prev.etid = tid || epoch_leq t prev tid then begin
                (* previous read ordered before us: stay in epoch state *)
                t.epoch_hits <- t.epoch_hits + 1;
                c.rd <- Repoch (my, site)
              end
              else if level t <> Governor.Full then begin
                (* degraded: keep only the newest read instead of
                   inflating — bounded state, possible missed
                   read-write races *)
                t.epoch_hits <- t.epoch_hits + 1;
                c.rd <- Repoch (my, site)
              end
              else begin
                (* concurrent reads: inflate to read vector *)
                t.vc_ops <- t.vc_ops + 1;
                let tbl = Hashtbl.create 4 in
                Hashtbl.replace tbl prev.etid (prev.eclock, psite);
                Hashtbl.replace tbl tid (my.eclock, site);
                charge t 2;
                c.rd <- Rshared tbl
              end
          | Rshared tbl ->
              t.vc_ops <- t.vc_ops + 1;
              if not (Hashtbl.mem tbl tid) then charge t 1;
              Hashtbl.replace tbl tid (my.eclock, site)))
  | Event.Mem { tid; site; loc; access = Event.Write; _ } -> (
      match cell t loc with
      | None -> ()
      | Some c ->
          feed_write t clock ~tid ~site ~loc c)
  | _ -> ()

and feed_write t clock ~tid ~site ~loc c =
      (* write-write race? *)
      (match c.wr with
      | Some (we, wsite) when we.etid <> tid && not (epoch_leq t we tid) ->
          report t ~loc ~tids:(we.etid, tid) ~accesses:(Event.Write, Event.Write)
            wsite site
      | _ -> t.epoch_hits <- t.epoch_hits + 1);
      (* read-write races? *)
      (match c.rd with
      | Rnone -> ()
      | Repoch (re, rsite) ->
          if re.etid <> tid && not (epoch_leq t re tid) then
            report t ~loc ~tids:(re.etid, tid) ~accesses:(Event.Read, Event.Write)
              rsite site
      | Rshared tbl ->
          t.vc_ops <- t.vc_ops + 1;
          Hashtbl.iter
            (fun rtid (rclock, rsite) ->
              if rtid <> tid && not (leq t rtid rclock tid) then
                report t ~loc ~tids:(rtid, tid) ~accesses:(Event.Read, Event.Write)
                  rsite site)
            tbl;
          (* after an ordered write, reads collapse back to the fast path *)
          if
            Hashtbl.fold
              (fun rtid (rclock, _) acc -> acc && leq t rtid rclock tid)
              tbl true
          then begin
            credit t (Hashtbl.length tbl);
            c.rd <- Rnone
          end);
      c.wr <- Some ({ etid = tid; eclock = clock }, site)

let races t = List.rev t.races
let pairs t = t.reported
let race_count t = Site.Pair.Set.cardinal t.reported
let epoch_hits t = t.epoch_hits
let vc_ops t = t.vc_ops
