(** Unified detector interface and drivers.

    Wraps the concrete detectors behind one record type so callers (phase-1
    drivers, the CLI, benches) can treat them uniformly, either as engine
    listeners (online) or over a recorded trace (offline). *)

open Rf_util
open Rf_events

type stats = {
  st_entries : int;
  st_mem_events : int;
  st_miss_bound : float option;
}

type t = {
  dname : string;
  feed : Event.t -> unit;
  races : unit -> Race.t list;
  pairs : unit -> Site.Pair.Set.t;
  stats : unit -> stats;
}

let name t = t.dname
let feed t ev = t.feed ev
let races t = t.races ()
let pairs t = t.pairs ()
let race_count t = Site.Pair.Set.cardinal (t.pairs ())
let stats t = t.stats ()
let no_stats () = { st_entries = 0; st_mem_events = 0; st_miss_bound = None }

(* The access-history instances share one record shape. *)
let of_history ?(miss_bound = false) d =
  {
    dname = Access_detector.name d;
    feed = Access_detector.feed d;
    races = (fun () -> Access_detector.races d);
    pairs = (fun () -> Access_detector.pairs d);
    stats =
      (fun () ->
        {
          st_entries = Access_detector.state_entries d;
          st_mem_events = Access_detector.mem_events d;
          st_miss_bound =
            (if miss_bound then Some (Access_detector.miss_bound d) else None);
        });
  }

let hybrid ?cap ?governor () = of_history (Hybrid.create ?cap ?governor ())

let hb_precise ?cap ?governor () =
  of_history (Hb_precise.create ?cap ?governor ())

let fasttrack ?governor () =
  let d = Fasttrack.create ?governor () in
  {
    dname = "fasttrack";
    feed = Fasttrack.feed d;
    races = (fun () -> Fasttrack.races d);
    pairs = (fun () -> Fasttrack.pairs d);
    stats = no_stats;
  }

let eraser ?site_cap ?governor () =
  let d = Eraser.create ?site_cap ?governor () in
  {
    dname = "eraser";
    feed = Eraser.feed d;
    races = (fun () -> Eraser.races d);
    pairs = (fun () -> Eraser.pairs d);
    stats = no_stats;
  }

let sampling ?k ?seed ?governor () =
  of_history ~miss_bound:true (Sampling.create ?k ?seed ?governor ())

(** Feed a recorded trace through a detector (offline analysis). *)
let run_on_trace t trace =
  Trace.iter (fun ev -> feed t ev) trace;
  races t
