module C = Rf_campaign.Campaign

let bar width frac =
  let n = int_of_float (frac *. float_of_int width +. 0.5) in
  let n = max 0 (min width n) in
  String.make n '#' ^ String.make (width - n) '.'

let render ppf (s : C.stats) =
  Fmt.pf ppf "campaign: %d pair(s), %d resolved real+harmful, %d wave(s)@."
    s.C.s_pairs s.C.s_resolved s.C.s_waves;
  Fmt.pf ppf "trials:   %d run, %d cancelled by cutoff, %d speculative discarded@."
    s.C.s_trials s.C.s_cancelled s.C.s_discarded;
  if s.C.s_replayed > 0 then
    Fmt.pf ppf "resume:   %d trial(s) replayed from the journal@." s.C.s_replayed;
  if s.C.s_resume_skipped > 0 then
    Fmt.pf ppf
      "WARNING:  %d corrupt journal line(s) skipped on resume — those trials re-ran@."
      s.C.s_resume_skipped;
  (* degradation lines only appear when a governor actually tripped, so an
     ungoverned (or never-over-budget) campaign's report is unchanged *)
  (match s.C.s_p1_level with
  | Some level ->
      Fmt.pf ppf "DEGRADED: phase 1 completed at %s precision (resource budget)@."
        level
  | None -> ());
  if s.C.s_degraded > 0 then
    Fmt.pf ppf "DEGRADED: %d trial(s) completed at reduced precision (resource budget)@."
      s.C.s_degraded;
  (match s.C.s_p1_recording with
  | Some r ->
      Fmt.pf ppf
        "recorded: phase 1 offline — %d event(s), %d byte(s), %d shard(s); \
         %.3fs record + %.3fs detect@."
        r.Racefuzzer.Fuzzer.rec_events r.Racefuzzer.Fuzzer.rec_bytes
        r.Racefuzzer.Fuzzer.rec_shards r.Racefuzzer.Fuzzer.rec_wall
        r.Racefuzzer.Fuzzer.detect_wall
  | None -> ());
  (* the fault lines only appear when something actually went wrong, so a
     clean campaign's report is unchanged *)
  if s.C.s_crashes > 0 || s.C.s_exhausted > 0 then
    Fmt.pf ppf "faults:   %d harness crash(es) sandboxed, %d trial(s) over deadline@."
      s.C.s_crashes s.C.s_exhausted;
  if s.C.s_quarantined > 0 then
    Fmt.pf ppf "QUARANTINED: %d pair(s) crashed the harness repeatedly (%d trial(s) skipped) — inspect the journal@."
      s.C.s_quarantined s.C.s_q_skipped;
  if s.C.s_worker_crashes > 0 then
    Fmt.pf ppf "workers:  %d crash(es), %d respawn(s), %d slot(s) gave up@."
      s.C.s_worker_crashes s.C.s_worker_respawns s.C.s_worker_gave_up;
  if s.C.s_interrupted then
    Fmt.pf ppf "INTERRUPTED: partial results — resume from the journal with --resume@.";
  (match s.C.s_static with
  | Some st ->
      Fmt.pf ppf
        "static:   universe %d pair(s), %d provably race-free; frontier %d \
         = %d likely + %d unknown + %d impossible@."
        st.C.st_universe st.C.st_universe_impossible st.C.st_frontier
        st.C.st_likely st.C.st_unknown st.C.st_impossible;
      Fmt.pf ppf "          %d pair(s) filtered before phase 2 (%.1f%% of frontier), %.3fs classification@."
        st.C.st_filtered
        (if st.C.st_frontier > 0 then
           100.0 *. float_of_int st.C.st_filtered /. float_of_int st.C.st_frontier
         else 0.0)
        st.C.st_wall
  | None -> ());
  (* Phase 1 may overlap phase 2, so its wall is a part of the
     campaign's, not an addition to it. *)
  Fmt.pf ppf "wall:     %.3fs campaign, %.3fs of it phase 1, %.1f trials/s@."
    s.C.s_campaign_wall s.C.s_phase1_wall s.C.s_throughput;
  Array.iteri
    (fun d trials ->
      let busy = s.C.s_domain_busy.(d) in
      let util = if s.C.s_wall > 0.0 then busy /. s.C.s_wall else 0.0 in
      Fmt.pf ppf "domain %d: %5d trials  busy %7.3fs  util %3.0f%% %s@." d trials busy
        (100.0 *. util) (bar 20 util))
    s.C.s_domain_trials

let pp = render

module Fuzzer = Racefuzzer.Fuzzer
open Rf_util

(* The pre-filter precision table: how much of the candidate frontier the
   static analysis removed, against what phase 2 actually confirmed.  A
   sound filter never filters a confirmed pair, so the last row is always
   0 — the table prints it anyway as the visible soundness check. *)
let precision ppf (r : C.result) =
  match r.C.stats.C.s_static with
  | None -> ()
  | Some st ->
      let a = r.C.analysis in
      let confirmed =
        Site.Pair.Set.union a.Fuzzer.real_pairs
          (Site.Pair.Set.union a.Fuzzer.error_pairs a.Fuzzer.deadlock_pairs)
      in
      let filtered_confirmed =
        List.length
          (List.filter
             (fun (p, _) -> Site.Pair.Set.mem p confirmed)
             a.Fuzzer.a_filtered)
      in
      Fmt.pf ppf "static pre-filter precision@.";
      Fmt.pf ppf "  candidate pairs      %6d@." st.C.st_frontier;
      Fmt.pf ppf "  filtered (impossible)%6d@." st.C.st_filtered;
      Fmt.pf ppf "  fuzzed               %6d@." (st.C.st_frontier - st.C.st_filtered);
      Fmt.pf ppf "  confirmed by phase 2 %6d@." (Site.Pair.Set.cardinal confirmed);
      Fmt.pf ppf "  filtered ∩ confirmed %6d%s@." filtered_confirmed
        (if filtered_confirmed > 0 then "  <-- UNSOUND FILTER" else "");
      Fmt.pf ppf "  filter time          %9.3fs@." st.C.st_wall;
      List.iter
        (fun (p, v) ->
          Fmt.pf ppf "  - %s: %s@." (Site.Pair.to_string p)
            (Rf_static.Static.verdict_to_string v))
        a.Fuzzer.a_filtered
