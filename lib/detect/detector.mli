(** Uniform detector interface: each phase-1 analysis as a record of
    closures usable online (as an {!Rf_runtime.Engine.run} listener) or
    offline (over a recorded trace). *)

open Rf_util
open Rf_events

(** End-of-run accounting, for journals, reports and benches.
    [st_entries] is the live logical state (retained summaries) and
    [st_mem_events] the memory events analyzed; detectors without that
    accounting (fasttrack, eraser) report zeros. *)
type stats = { st_entries : int; st_mem_events : int }

type t = {
  dname : string;
  feed : Event.t -> unit;
  races : unit -> Race.t list;
  pairs : unit -> Site.Pair.Set.t;
  stats : unit -> stats;
}

val name : t -> string
val feed : t -> Event.t -> unit
val races : t -> Race.t list
val pairs : t -> Site.Pair.Set.t
val race_count : t -> int
val stats : t -> stats

val hybrid :
  ?cap:int ->
  ?governor:Rf_resource.Governor.t ->
  ?on_pair:(Site.Pair.t -> unit) ->
  unit ->
  t
(** O'Callahan–Choi hybrid detection [37] — the paper's phase 1: disjoint
    locksets + weak happens-before.  Predictive, imprecise.  [cap] bounds
    the per-location access history.  [on_pair] is called once per
    statement pair, on the event that first reports it, so the calls
    come in {!races} order.  The reported set only grows, on every rung
    of the degradation ladder, so the pairs told are exactly {!pairs}. *)

val hb_precise : ?cap:int -> ?governor:Rf_resource.Governor.t -> unit -> t
(** Classical happens-before detection [44]: precise on the observed
    execution, not predictive, tracks everything (the expensive baseline
    the paper contrasts with). *)

val fasttrack : ?governor:Rf_resource.Governor.t -> unit -> t
(** Epoch-optimized precise happens-before (FastTrack-style): same racy
    locations as {!hb_precise} at a fraction of the bookkeeping. *)

val eraser : ?site_cap:int -> ?governor:Rf_resource.Governor.t -> unit -> t
(** Eraser lockset discipline checking [43]: no happens-before at all, the
    noisiest baseline.

    All four constructors accept a {!Rf_resource.Governor}: detector
    state (access summaries, clock tables, location cells) is then
    metered against the trial's entry budget and shed down the
    degradation ladder instead of growing without bound.  Degradation is
    driven by logical counters only, so a governed run's reports are a
    deterministic function of the event stream and the budget. *)

val run_on_trace : t -> Trace.t -> Race.t list
