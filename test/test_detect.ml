(* Tests for phase-1 detectors: happens-before clock construction, hybrid
   detection, precise HB detection, Eraser — on synthetic event streams and
   on real engine runs of the paper's Figure 1. *)

open Rf_util
open Rf_events
open Rf_detect

let st n = Site.make ~file:"synthetic" ~line:n "s"

let mem ~tid ~line ?(loc = Loc.global "v") ?(access = Event.Write)
    ?(locks = []) () =
  Event.Mem { tid; site = st line; loc; access; lockset = Lockset.of_list locks }

(* ------------------------------------------------------------------ *)
(* Hbclock                                                             *)

(* [before hb (tid, c) now] — the event of [tid] with epoch [c] is ordered
   before the current point of thread [now]. *)
let before hb (tid, clock) now_tid = Hbclock.hb_before hb ~tid ~clock ~now_tid

let test_hbclock_program_order () =
  let hb = Hbclock.create ~lock_edges:false () in
  let c1 = Hbclock.feed hb (mem ~tid:0 ~line:1 ()) in
  let c2 = Hbclock.feed hb (mem ~tid:0 ~line:2 ()) in
  Alcotest.(check bool) "epochs increase" true (c1 < c2);
  Alcotest.(check bool) "program order" true (before hb (0, c1) 0)

let test_hbclock_unrelated_threads_concurrent () =
  let hb = Hbclock.create ~lock_edges:false () in
  let c1 = Hbclock.feed hb (mem ~tid:0 ~line:1 ()) in
  let c2 = Hbclock.feed hb (mem ~tid:1 ~line:2 ()) in
  Alcotest.(check bool) "t0's access not before t1" false (before hb (0, c1) 1);
  Alcotest.(check bool) "t1's access not before t0" false (before hb (1, c2) 0)

let test_hbclock_msg_edge () =
  let hb = Hbclock.create ~lock_edges:false () in
  let c1 = Hbclock.feed hb (mem ~tid:0 ~line:1 ()) in
  let _ = Hbclock.feed hb (Event.Snd { tid = 0; msg = 7; reason = Event.Fork }) in
  Alcotest.(check bool) "not yet received" false (before hb (0, c1) 1);
  let _ = Hbclock.feed hb (Event.Rcv { tid = 1; msg = 7; reason = Event.Fork }) in
  let _ = Hbclock.feed hb (mem ~tid:1 ~line:2 ()) in
  Alcotest.(check bool) "ordered via message" true (before hb (0, c1) 1)

let test_hbclock_lock_edges_policy () =
  let run ~lock_edges =
    let hb = Hbclock.create ~lock_edges () in
    let c1 = Hbclock.feed hb (mem ~tid:0 ~line:1 ()) in
    let _ = Hbclock.feed hb (Event.Release { tid = 0; lock = 5; site = st 2 }) in
    let _ = Hbclock.feed hb (Event.Acquire { tid = 1; lock = 5; site = st 3 }) in
    let _ = Hbclock.feed hb (mem ~tid:1 ~line:4 ()) in
    before hb (0, c1) 1
  in
  Alcotest.(check bool) "lock edge orders" true (run ~lock_edges:true);
  Alcotest.(check bool) "no lock edge: concurrent" false (run ~lock_edges:false)

let test_hbclock_release_overwrites () =
  (* the lock's clock is the last release's, not an accumulation *)
  let hb = Hbclock.create ~lock_edges:true () in
  let c1 = Hbclock.feed hb (mem ~tid:0 ~line:1 ()) in
  let _ = Hbclock.feed hb (Event.Release { tid = 0; lock = 5; site = st 2 }) in
  let _ = Hbclock.feed hb (Event.Release { tid = 2; lock = 5; site = st 2 }) in
  let _ = Hbclock.feed hb (Event.Acquire { tid = 1; lock = 5; site = st 3 }) in
  Alcotest.(check bool) "earlier releaser not joined" false (before hb (0, c1) 1)

let test_hbclock_unmatched_rcv () =
  let hb = Hbclock.create ~lock_edges:false () in
  let c = Hbclock.feed hb (Event.Rcv { tid = 3; msg = 999; reason = Event.Join }) in
  Alcotest.(check int) "own component ticked" 1 c

let test_hbclock_evicted_msg () =
  (* a budget trip sheds the lowest-id half of the pending messages; a
     receive of an evicted message contributes no edge *)
  let g = Rf_resource.Governor.create ~max_entries:1000 () in
  let hb = Hbclock.create ~governor:g ~lock_edges:false () in
  let c1 = Hbclock.feed hb (mem ~tid:0 ~line:1 ()) in
  let _ = Hbclock.feed hb (Event.Snd { tid = 0; msg = 1; reason = Event.Fork }) in
  let _ = Hbclock.feed hb (Event.Snd { tid = 0; msg = 2; reason = Event.Fork }) in
  Rf_resource.Governor.trip g Rf_resource.Governor.Injected;
  Alcotest.(check int) "one message evicted" 1 (Hbclock.msg_evictions hb);
  let _ = Hbclock.feed hb (Event.Rcv { tid = 1; msg = 1; reason = Event.Fork }) in
  let _ = Hbclock.feed hb (Event.Rcv { tid = 2; msg = 2; reason = Event.Fork }) in
  Alcotest.(check bool) "evicted message: no edge" false (before hb (0, c1) 1);
  Alcotest.(check bool) "surviving message: edge" true (before hb (0, c1) 2)

(* ------------------------------------------------------------------ *)
(* Hybrid on synthetic streams                                         *)

let feed_all d evs = List.iter (Hybrid.feed d) evs

let test_hybrid_basic_race () =
  let d = Hybrid.create () in
  feed_all d [ mem ~tid:0 ~line:1 (); mem ~tid:1 ~line:2 () ];
  Alcotest.(check int) "one pair" 1 (Hybrid.race_count d)

let test_hybrid_read_read_no_race () =
  let d = Hybrid.create () in
  feed_all d
    [ mem ~tid:0 ~line:1 ~access:Event.Read (); mem ~tid:1 ~line:2 ~access:Event.Read () ];
  Alcotest.(check int) "reads don't race" 0 (Hybrid.race_count d)

let test_hybrid_common_lock_no_race () =
  let d = Hybrid.create () in
  feed_all d [ mem ~tid:0 ~line:1 ~locks:[ 5 ] (); mem ~tid:1 ~line:2 ~locks:[ 5; 6 ] () ];
  Alcotest.(check int) "common lock" 0 (Hybrid.race_count d)

let test_hybrid_disjoint_locks_race () =
  let d = Hybrid.create () in
  feed_all d [ mem ~tid:0 ~line:1 ~locks:[ 5 ] (); mem ~tid:1 ~line:2 ~locks:[ 6 ] () ];
  Alcotest.(check int) "disjoint locks race" 1 (Hybrid.race_count d)

let test_hybrid_different_locs_no_race () =
  let d = Hybrid.create () in
  feed_all d
    [ mem ~tid:0 ~line:1 ~loc:(Loc.global "a") (); mem ~tid:1 ~line:2 ~loc:(Loc.global "b") () ];
  Alcotest.(check int) "different locations" 0 (Hybrid.race_count d)

let test_hybrid_same_thread_no_race () =
  let d = Hybrid.create () in
  feed_all d [ mem ~tid:0 ~line:1 (); mem ~tid:0 ~line:2 () ];
  Alcotest.(check int) "same thread" 0 (Hybrid.race_count d)

let test_hybrid_fork_edge_suppresses () =
  let d = Hybrid.create () in
  feed_all d
    [
      mem ~tid:0 ~line:1 ();
      Event.Snd { tid = 0; msg = 1; reason = Event.Fork };
      Event.Rcv { tid = 1; msg = 1; reason = Event.Fork };
      mem ~tid:1 ~line:2 ();
    ];
  Alcotest.(check int) "fork ordering respected" 0 (Hybrid.race_count d)

let test_hybrid_ignores_lock_ordering () =
  (* Two critical sections on the same lock touching v without holding it:
     hybrid treats release->acquire as no edge, so still a race. *)
  let d = Hybrid.create () in
  feed_all d
    [
      mem ~tid:0 ~line:1 ();
      Event.Release { tid = 0; lock = 9; site = st 10 };
      Event.Acquire { tid = 1; lock = 9; site = st 11 };
      mem ~tid:1 ~line:2 ();
    ];
  Alcotest.(check int) "predictive across lock ordering" 1 (Hybrid.race_count d)

let test_hybrid_dedups_pairs () =
  let d = Hybrid.create () in
  for _ = 1 to 10 do
    feed_all d [ mem ~tid:0 ~line:1 (); mem ~tid:1 ~line:2 () ]
  done;
  Alcotest.(check int) "one distinct pair" 1 (Hybrid.race_count d)

let test_hybrid_race_metadata () =
  let d = Hybrid.create () in
  feed_all d [ mem ~tid:0 ~line:1 (); mem ~tid:1 ~line:2 () ];
  match Hybrid.races d with
  | [ r ] ->
      Alcotest.(check bool) "loc recorded" true (Loc.equal r.Race.loc (Loc.global "v"));
      Alcotest.(check bool) "pair has both sites" true
        (Site.Pair.mem (st 1) r.Race.pair && Site.Pair.mem (st 2) r.Race.pair)
  | l -> Alcotest.failf "expected 1 race, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Precise HB vs hybrid                                                *)

let test_hb_precise_respects_lock_order () =
  let d = Hb_precise.create () in
  List.iter (Hb_precise.feed d)
    [
      Event.Acquire { tid = 0; lock = 9; site = st 10 };
      mem ~tid:0 ~line:1 ~locks:[ 9 ] ();
      Event.Release { tid = 0; lock = 9; site = st 10 };
      Event.Acquire { tid = 1; lock = 9; site = st 11 };
      mem ~tid:1 ~line:2 ~locks:[ 9 ] ();
      Event.Release { tid = 1; lock = 9; site = st 11 };
    ];
  Alcotest.(check int) "lock-ordered accesses don't race" 0 (Hb_precise.race_count d)

let test_hb_precise_detects_true_concurrency () =
  let d = Hb_precise.create () in
  List.iter (Hb_precise.feed d) [ mem ~tid:0 ~line:1 (); mem ~tid:1 ~line:2 () ];
  Alcotest.(check int) "unordered conflicting accesses race" 1
    (Hb_precise.race_count d)

let test_hb_precise_ignores_locksets () =
  (* Same lock held but accesses NOT ordered by any release->acquire of it:
     t0 and t1 hold different locks; precise HB reports (locksets are not
     part of its condition). *)
  let d = Hb_precise.create () in
  List.iter (Hb_precise.feed d)
    [ mem ~tid:0 ~line:1 ~locks:[ 5 ] (); mem ~tid:1 ~line:2 ~locks:[ 5 ] () ];
  Alcotest.(check int) "concurrent despite common lockset field" 1
    (Hb_precise.race_count d)

(* ------------------------------------------------------------------ *)
(* Eraser                                                              *)

let test_eraser_consistent_discipline () =
  let d = Eraser.create () in
  List.iter (Eraser.feed d)
    [
      mem ~tid:0 ~line:1 ~locks:[ 5 ] ();
      mem ~tid:1 ~line:2 ~locks:[ 5 ] ();
      mem ~tid:0 ~line:1 ~locks:[ 5 ] ();
    ];
  Alcotest.(check int) "consistent lock: no race" 0 (Eraser.race_count d)

let test_eraser_violation () =
  let d = Eraser.create () in
  List.iter (Eraser.feed d)
    [ mem ~tid:0 ~line:1 ~locks:[ 5 ] (); mem ~tid:1 ~line:2 ~locks:[ 6 ] () ];
  Alcotest.(check int) "discipline violation" 1 (Eraser.race_count d);
  Alcotest.(check int) "racy location recorded" 1 (List.length (Eraser.racy_locations d))

let test_eraser_exclusive_phase_tolerated () =
  (* Initialization by a single thread without locks is fine until sharing. *)
  let d = Eraser.create () in
  List.iter (Eraser.feed d)
    [
      mem ~tid:0 ~line:1 ();
      mem ~tid:0 ~line:1 ();
      mem ~tid:1 ~line:2 ~access:Event.Read ~locks:[ 5 ] ();
    ];
  (* Shared (read) state with candidate lockset {5}: no violation yet. *)
  Alcotest.(check int) "no race during read sharing" 0 (Eraser.race_count d)

let test_eraser_false_positive_on_fork_join () =
  (* Eraser has no happens-before at all: handoff via fork is flagged even
     though it is perfectly ordered — hybrid correctly stays silent. *)
  let evs =
    [
      mem ~tid:0 ~line:1 ();
      Event.Snd { tid = 0; msg = 1; reason = Event.Fork };
      Event.Rcv { tid = 1; msg = 1; reason = Event.Fork };
      mem ~tid:1 ~line:2 ();
    ]
  in
  let e = Eraser.create () in
  List.iter (Eraser.feed e) evs;
  let h = Hybrid.create () in
  List.iter (Hybrid.feed h) evs;
  Alcotest.(check int) "eraser flags ordered handoff" 1 (Eraser.race_count e);
  Alcotest.(check int) "hybrid does not" 0 (Hybrid.race_count h)

(* ------------------------------------------------------------------ *)
(* FastTrack                                                           *)

let feed_ft d evs = List.iter (Fasttrack.feed d) evs

let test_fasttrack_basic_races () =
  let d = Fasttrack.create () in
  feed_ft d [ mem ~tid:0 ~line:1 (); mem ~tid:1 ~line:2 () ];
  Alcotest.(check int) "write-write race" 1 (Fasttrack.race_count d)

let test_fasttrack_read_write () =
  let d = Fasttrack.create () in
  feed_ft d
    [ mem ~tid:0 ~line:1 ~access:Event.Read (); mem ~tid:1 ~line:2 ~access:Event.Write () ];
  Alcotest.(check int) "read-write race" 1 (Fasttrack.race_count d)

let test_fasttrack_lock_ordered_silent () =
  let d = Fasttrack.create () in
  feed_ft d
    [
      Event.Acquire { tid = 0; lock = 9; site = st 10 };
      mem ~tid:0 ~line:1 ~locks:[ 9 ] ();
      Event.Release { tid = 0; lock = 9; site = st 10 };
      Event.Acquire { tid = 1; lock = 9; site = st 11 };
      mem ~tid:1 ~line:2 ~locks:[ 9 ] ();
      Event.Release { tid = 1; lock = 9; site = st 11 };
    ];
  Alcotest.(check int) "ordered: no race" 0 (Fasttrack.race_count d)

let test_fasttrack_shared_read_state () =
  (* two concurrent reads (inflating the read set) then a write racing
     with both *)
  let d = Fasttrack.create () in
  feed_ft d
    [
      mem ~tid:0 ~line:1 ~access:Event.Read ();
      mem ~tid:1 ~line:2 ~access:Event.Read ();
      mem ~tid:2 ~line:3 ~access:Event.Write ();
    ];
  Alcotest.(check bool) "both read-write pairs found" true (Fasttrack.race_count d >= 2);
  Alcotest.(check bool) "slow path used" true (Fasttrack.vc_ops d > 0)

let test_fasttrack_epoch_fast_path () =
  (* same-thread repeated accesses stay on the O(1) fast path *)
  let d = Fasttrack.create () in
  for _ = 1 to 50 do
    feed_ft d [ mem ~tid:0 ~line:1 () ]
  done;
  Alcotest.(check int) "no races" 0 (Fasttrack.race_count d);
  Alcotest.(check int) "no vector-clock ops" 0 (Fasttrack.vc_ops d);
  Alcotest.(check bool) "epoch hits accumulated" true (Fasttrack.epoch_hits d > 40)

let racy_locs detector_races =
  List.fold_left
    (fun acc (r : Race.t) -> Loc.Set.add r.Race.loc acc)
    Loc.Set.empty detector_races

let test_fasttrack_agrees_with_precise_on_figure1 () =
  List.iter
    (fun seed ->
      let ft = Fasttrack.create () in
      let hb = Detector.hb_precise ~cap:1024 () in
      ignore
        (Rf_runtime.Engine.run
           ~config:{ Rf_runtime.Engine.default_config with seed }
           ~listeners:[ Fasttrack.feed ft; Detector.feed hb ]
           ~strategy:(Rf_runtime.Strategy.random ())
           Rf_workloads.Figure1.program);
      (* FastTrack reports a subset of the precise pair set... *)
      Alcotest.(check bool) "pairs subset" true
        (Site.Pair.Set.subset (Fasttrack.pairs ft) (Detector.pairs hb));
      (* ...but flags exactly the same racy locations *)
      Alcotest.(check bool) "same racy locations" true
        (Loc.Set.equal
           (racy_locs (Fasttrack.races ft))
           (racy_locs (Detector.races hb))))
    (List.init 25 Fun.id)

(* ------------------------------------------------------------------ *)
(* Integration: detectors as engine listeners on Figure 1              *)

let figure1_pairs ~seeds detector_of =
  let d = detector_of () in
  List.iter
    (fun seed ->
      ignore
        (Rf_runtime.Engine.run
           ~config:{ Rf_runtime.Engine.default_config with seed }
           ~listeners:[ Detector.feed d ]
           ~strategy:(Rf_runtime.Strategy.random ())
           Rf_workloads.Figure1.program))
    seeds;
  Detector.pairs d

let test_figure1_hybrid_finds_both_candidates () =
  let pairs = figure1_pairs ~seeds:(List.init 20 Fun.id) Detector.hybrid in
  Alcotest.(check bool) "real pair (5,7) found" true
    (Site.Pair.Set.mem Rf_workloads.Figure1.real_pair pairs);
  Alcotest.(check bool) "false pair (1,10) predicted too" true
    (Site.Pair.Set.mem Rf_workloads.Figure1.false_pair pairs);
  (* y is consistently locked: no pair may involve sites 3 or 9 *)
  Site.Pair.Set.iter
    (fun p ->
      Alcotest.(check bool) "y never reported" false
        (Site.Pair.mem Rf_workloads.Figure1.s3_write_y p
        || Site.Pair.mem Rf_workloads.Figure1.s9_read_y p))
    pairs;
  Alcotest.(check int) "exactly the two pairs" 2 (Site.Pair.Set.cardinal pairs)

let test_figure1_hb_precise_subset_of_hybrid () =
  let seeds = List.init 20 Fun.id in
  let hb = figure1_pairs ~seeds Detector.hb_precise in
  let hy = figure1_pairs ~seeds Detector.hybrid in
  Alcotest.(check bool) "precise ⊆ hybrid on figure1" true
    (Site.Pair.Set.subset hb hy)

let prop_hybrid_supseteq_precise =
  (* On arbitrary seeds of the racy figure-1 program, every pair the precise
     HB detector reports is also reported by hybrid (same trace): hybrid's
     happens-before relation is a subset, so its concurrency is a superset;
     the lockset condition can only remove lock-protected pairs, which
     precise HB orders via lock edges anyway. *)
  QCheck.Test.make ~name:"hybrid ⊇ precise-HB per trace" ~count:25 QCheck.small_int
    (fun seed ->
      let d_hy = Detector.hybrid () and d_hb = Detector.hb_precise () in
      ignore
        (Rf_runtime.Engine.run
           ~config:{ Rf_runtime.Engine.default_config with seed; record_trace = false }
           ~listeners:[ Detector.feed d_hy; Detector.feed d_hb ]
           ~strategy:(Rf_runtime.Strategy.random ())
           Rf_workloads.Figure1.program);
      Site.Pair.Set.subset (Detector.pairs d_hb) (Detector.pairs d_hy))

let () =
  Alcotest.run "rf_detect"
    [
      ( "hbclock",
        [
          Alcotest.test_case "program order" `Quick test_hbclock_program_order;
          Alcotest.test_case "threads concurrent" `Quick
            test_hbclock_unrelated_threads_concurrent;
          Alcotest.test_case "msg edge" `Quick test_hbclock_msg_edge;
          Alcotest.test_case "lock edge policy" `Quick test_hbclock_lock_edges_policy;
          Alcotest.test_case "release overwrites" `Quick test_hbclock_release_overwrites;
          Alcotest.test_case "unmatched rcv" `Quick test_hbclock_unmatched_rcv;
          Alcotest.test_case "evicted message" `Quick test_hbclock_evicted_msg;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "basic race" `Quick test_hybrid_basic_race;
          Alcotest.test_case "read-read" `Quick test_hybrid_read_read_no_race;
          Alcotest.test_case "common lock" `Quick test_hybrid_common_lock_no_race;
          Alcotest.test_case "disjoint locks" `Quick test_hybrid_disjoint_locks_race;
          Alcotest.test_case "different locs" `Quick test_hybrid_different_locs_no_race;
          Alcotest.test_case "same thread" `Quick test_hybrid_same_thread_no_race;
          Alcotest.test_case "fork edge" `Quick test_hybrid_fork_edge_suppresses;
          Alcotest.test_case "ignores lock order" `Quick
            test_hybrid_ignores_lock_ordering;
          Alcotest.test_case "dedups" `Quick test_hybrid_dedups_pairs;
          Alcotest.test_case "metadata" `Quick test_hybrid_race_metadata;
        ] );
      ( "hb-precise",
        [
          Alcotest.test_case "lock order respected" `Quick
            test_hb_precise_respects_lock_order;
          Alcotest.test_case "true concurrency" `Quick
            test_hb_precise_detects_true_concurrency;
          Alcotest.test_case "ignores locksets" `Quick test_hb_precise_ignores_locksets;
        ] );
      ( "eraser",
        [
          Alcotest.test_case "consistent discipline" `Quick
            test_eraser_consistent_discipline;
          Alcotest.test_case "violation" `Quick test_eraser_violation;
          Alcotest.test_case "exclusive phase" `Quick
            test_eraser_exclusive_phase_tolerated;
          Alcotest.test_case "fork-join false positive" `Quick
            test_eraser_false_positive_on_fork_join;
        ] );
      ( "fasttrack",
        [
          Alcotest.test_case "basic races" `Quick test_fasttrack_basic_races;
          Alcotest.test_case "read-write" `Quick test_fasttrack_read_write;
          Alcotest.test_case "lock ordered" `Quick test_fasttrack_lock_ordered_silent;
          Alcotest.test_case "shared read state" `Quick test_fasttrack_shared_read_state;
          Alcotest.test_case "epoch fast path" `Quick test_fasttrack_epoch_fast_path;
          Alcotest.test_case "agrees with precise" `Quick
            test_fasttrack_agrees_with_precise_on_figure1;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "hybrid candidates" `Quick
            test_figure1_hybrid_finds_both_candidates;
          Alcotest.test_case "precise subset" `Quick
            test_figure1_hb_precise_subset_of_hybrid;
          QCheck_alcotest.to_alcotest prop_hybrid_supseteq_precise;
        ] );
    ]
