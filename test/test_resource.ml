(* The @stress tier: resource governance and crash-safe artifacts.

   1. Governor unit behaviour: the degradation ladder steps Full ->
      Sampled -> Lockset_only, accounting (charge/credit/evict) is exact,
      no_degrade raises Budget_stop instead of degrading.
   2. QCheck over adversarial stress programs: governed phase-1 detection
      (a) never holds more than its entry budget, (b) is deterministic —
      same seed, same final ladder level, same potential pairs, same
      campaign fingerprint on any domain count — and (c) under
      ~no_degrade stops with Budget_stop rather than degrading.
   3. Crash-safe artifacts: SIGKILL during an atomic write leaves the old
      file intact (never a torn one); an in-place corrupted journal line
      is checksum-detected, skipped and counted, and a resumed campaign
      still fingerprints identically to an uninterrupted one.
   4. Chaos budget trips mark trials degraded deterministically, so
      kill/resume and cross-domain fingerprints cover degraded trials. *)

open Rf_util
module Governor = Rf_resource.Governor
module Atomic_file = Rf_util.Atomic_file
module Fuzzer = Racefuzzer.Fuzzer
module Campaign = Rf_campaign.Campaign
module Event_log = Rf_campaign.Event_log
module Chaos = Rf_campaign.Chaos
module W = Rf_workloads

(* ------------------------------------------------------------------ *)
(* 1. Governor unit behaviour                                          *)

let test_ladder_steps () =
  let g = Governor.create ~max_entries:10 () in
  (* a subscriber that sheds everything: accounting stays consistent *)
  let shed = ref 0 in
  Governor.subscribe g (fun _level ->
      let n = Governor.entries g in
      Governor.evict g n;
      shed := !shed + n);
  Alcotest.(check bool) "starts Full" true (Governor.level g = Governor.Full);
  Governor.charge g 10;
  Alcotest.(check bool) "at budget stays Full" true (Governor.level g = Governor.Full);
  Governor.charge g 1;
  Alcotest.(check bool) "over budget -> Sampled" true
    (Governor.level g = Governor.Sampled);
  Governor.charge g 11;
  Alcotest.(check bool) "second trip -> Lockset_only" true
    (Governor.level g = Governor.Lockset_only);
  Governor.charge g 11;
  Alcotest.(check bool) "bottom rung holds" true
    (Governor.level g = Governor.Lockset_only);
  let s = Governor.snapshot g in
  Alcotest.(check int) "trips counted" 3 s.Governor.g_trips;
  Alcotest.(check int) "evictions accounted" !shed s.Governor.g_evicted;
  Alcotest.(check int) "shed everything each trip" 0 s.Governor.g_entries;
  Alcotest.(check bool) "peak seen" true (s.Governor.g_peak >= 11);
  Alcotest.(check bool) "first trigger recorded" true
    (s.Governor.g_trigger = Some Governor.Entry_budget)

let test_accounting () =
  let g = Governor.unlimited () in
  Governor.charge g 7;
  Governor.credit g 3;
  Alcotest.(check int) "charge - credit" 4 (Governor.entries g);
  Governor.charge g 100_000;
  Alcotest.(check bool) "unlimited never trips" true
    ((Governor.level g = Governor.Full) && not (Governor.degraded g))

let test_no_degrade_raises () =
  let g = Governor.create ~max_entries:5 ~no_degrade:true () in
  Governor.charge g 5;
  match Governor.charge g 1 with
  | () -> Alcotest.fail "expected Budget_stop"
  | exception Governor.Budget_stop t ->
      Alcotest.(check bool) "trigger is entry budget" true (t = Governor.Entry_budget)

let test_string_round_trips () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "level round-trips" true
        (Governor.level_of_string (Governor.level_to_string l) = Some l))
    [ Governor.Full; Governor.Sampled; Governor.Lockset_only ];
  List.iter
    (fun t ->
      Alcotest.(check bool) "trigger round-trips" true
        (Governor.trigger_of_string (Governor.trigger_to_string t) = Some t))
    [ Governor.Entry_budget; Governor.Heap_watermark; Governor.Injected ]

(* ------------------------------------------------------------------ *)
(* 2. Governed detection over adversarial programs                     *)

let stress_pool : (string * (unit -> unit)) list =
  [
    ("threads", W.Stress.thread_storm ~threads:12 ~writes:2);
    ("locks", W.Stress.lock_churn ~locks:64 ~rounds:1);
    ("hotloc", W.Stress.hot_location ~threads:8 ~rounds:8);
    ("sweep", W.Stress.address_sweep ~locs:4096 ~overlap:64);
  ]

let gen_case =
  QCheck.Gen.(
    let* wi = int_bound (List.length stress_pool - 1) in
    let* budget = map (fun n -> 64 + (n mod 448)) nat in
    let* seed = int_bound 1000 in
    return (wi, budget, seed))

let arb_case =
  QCheck.make
    ~print:(fun (wi, budget, seed) ->
      Printf.sprintf "workload=%s budget=%d seed=%d"
        (fst (List.nth stress_pool wi))
        budget seed)
    gen_case

(* (a) The budget is respected: after any governed phase 1, the charged
   entries never exceed the budget (compaction sheds to half of it; a
   trip fires the moment a charge crosses it). *)
let prop_budget_respected =
  QCheck.Test.make ~name:"governed phase 1 stays within its entry budget"
    ~count:24 arb_case (fun (wi, budget, seed) ->
      let _, program = List.nth stress_pool wi in
      let g = Governor.create ~max_entries:budget () in
      let p1 = Fuzzer.phase1 ~seeds:[ seed ] ~governor:g program in
      ignore (Fuzzer.potential_pairs p1);
      let s = Governor.snapshot g in
      s.Governor.g_entries <= budget)

(* (b) Degraded runs are deterministic: same seed, same final ladder
   level, same eviction count, same potential set. *)
let prop_degraded_deterministic =
  QCheck.Test.make ~name:"same seed -> same ladder level and potential set"
    ~count:16 arb_case (fun (wi, budget, seed) ->
      let _, program = List.nth stress_pool wi in
      let once () =
        let g = Governor.create ~max_entries:budget () in
        let p1 = Fuzzer.phase1 ~seeds:[ seed ] ~governor:g program in
        (Fuzzer.potential_pairs p1, Governor.snapshot g)
      in
      let pairs1, s1 = once () in
      let pairs2, s2 = once () in
      Site.Pair.Set.equal pairs1 pairs2
      && s1.Governor.g_level = s2.Governor.g_level
      && s1.Governor.g_evicted = s2.Governor.g_evicted
      && s1.Governor.g_trips = s2.Governor.g_trips)

(* (c) no_degrade converts the first trip into Budget_stop. *)
let prop_no_degrade_stops =
  QCheck.Test.make ~name:"~no_degrade raises Budget_stop when tripping"
    ~count:16 arb_case (fun (wi, budget, seed) ->
      let _, program = List.nth stress_pool wi in
      (* would this (workload, budget, seed) trip at all? *)
      let g = Governor.create ~max_entries:budget () in
      ignore (Fuzzer.phase1 ~seeds:[ seed ] ~governor:g program);
      let trips = Governor.degraded g in
      let g' = Governor.create ~max_entries:budget ~no_degrade:true () in
      match Fuzzer.phase1 ~seeds:[ seed ] ~governor:g' program with
      | _ -> not trips  (* must only complete when the budget never trips *)
      | exception Governor.Budget_stop _ -> trips)

(* The stress-sweep shape: a sweep that walks the ladder down to its
   bottom rung, then a fork chain.  Ungoverned, the chain's clocks grow
   with the square of its length; at the lockset-only rung clocks are no
   longer fed, so the governed detector charges exactly what the sweep
   alone charges — which is why a budget fits stress-sweep under the CI
   memory ceiling. *)
let test_fork_chain_free_at_bottom () =
  let sweep = W.Stress.address_sweep ~locs:4096 ~overlap:64 in
  let governed program =
    let g = Governor.create ~max_entries:256 () in
    let p1 = Fuzzer.phase1 ~seeds:[ 0 ] ~governor:g program in
    (Governor.snapshot g, Site.Pair.Set.cardinal (Fuzzer.potential_pairs p1))
  in
  let s0, n0 = governed sweep in
  let s1, n1 =
    governed (fun () ->
        sweep ();
        W.Stress.fork_chain ~threads:200 ())
  in
  Alcotest.(check string) "sweep reaches the bottom rung" "lockset-only"
    (Governor.level_to_string s0.Governor.g_level);
  Alcotest.(check (list int)) "entries, peak, evictions, pairs unchanged"
    [ s0.Governor.g_entries; s0.Governor.g_peak; s0.Governor.g_evicted; n0 ]
    [ s1.Governor.g_entries; s1.Governor.g_peak; s1.Governor.g_evicted; n1 ]

(* Campaign-level: governed end-to-end runs fingerprint identically on
   any domain count, and degraded trials (from chaos budget trips) are
   counted and preserved across the comparison. *)
let test_campaign_governed_domain_invariant () =
  let program = W.Figure1.program in
  let chaos = Chaos.plan ~budget_rate:1.0 7 in
  let run domains =
    Campaign.run ~domains ~phase1_seeds:[ 0 ] ~seeds_per_pair:[ 0; 1; 2; 3 ]
      ~chaos ~detector_budget:100_000 program
  in
  let r1 = run 1 in
  let r4 = run 4 in
  Alcotest.(check string) "fingerprints equal across domains"
    (Campaign.fingerprint r1.Campaign.analysis)
    (Campaign.fingerprint r4.Campaign.analysis);
  Alcotest.(check bool) "budget_rate=1.0 degrades every executed trial" true
    (r1.Campaign.stats.Campaign.s_degraded > 0);
  Alcotest.(check int) "same degraded count" r1.Campaign.stats.Campaign.s_degraded
    r4.Campaign.stats.Campaign.s_degraded

(* ------------------------------------------------------------------ *)
(* 3a. SIGKILL during an atomic write never tears the artifact          *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The child half: re-exec this test binary with [RF_STALL_WRITE=path]
   (see the guard above [Alcotest.run]) and it performs an atomic
   overwrite that stalls with bytes already flushed to the temp file —
   the worst possible kill point.  A separate process because
   [Unix.fork] is unavailable once campaign tests have spawned domains,
   and because a real SIGKILL (not an exception) is the point. *)
let stall_write_child path =
  (try
     Atomic_file.write path (fun oc ->
         output_string oc "torn-";
         flush oc;
         Unix.sleepf 30.0;
         output_string oc "never-written")
   with _ -> ());
  exit 0

let test_kill_during_write () =
  let path = Filename.temp_file "rf_atomic" ".dat" in
  let old_content = "old-but-complete" in
  Atomic_file.write_string path old_content;
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      (Array.append (Unix.environment ()) [| "RF_STALL_WRITE=" ^ path |])
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* wait until the child has the temp file open with bytes in it *)
  let tmp = path ^ ".tmp" in
  let rec settle n =
    let started =
      Sys.file_exists tmp && (try (Unix.stat tmp).Unix.st_size > 0 with _ -> false)
    in
    if (not started) && n > 0 then begin
      Unix.sleepf 0.05;
      settle (n - 1)
    end
  in
  settle 100;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Alcotest.(check string) "old artifact intact after SIGKILL mid-write"
    old_content (read_file path);
  (* recovery: the next write simply succeeds over the stale temp file *)
  Atomic_file.write_string path "recovered";
  Alcotest.(check string) "next write wins" "recovered" (read_file path);
  Sys.remove path;
  if Sys.file_exists tmp then Sys.remove tmp

let test_schedule_save_is_atomic () =
  (* Schedule.save goes through the same temp-and-rename path; prove the
     wiring by interposing a kill between the temp write and a reload. *)
  let dir = Filename.temp_file "rf_sched" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "witness.sched.json" in
  let _, sched =
    Fuzzer.record_trial ~target:"figure1" ~max_steps:100_000
      ~program:W.Figure1.program W.Figure1.real_pair 1
  in
  Rf_replay.Schedule.save path sched;
  let reloaded = Rf_replay.Schedule.load path in
  Alcotest.(check int) "round-trips through the atomic path"
    (Array.length sched.Rf_replay.Schedule.steps)
    (Array.length reloaded.Rf_replay.Schedule.steps);
  (* a torn file (what save can no longer produce) is a typed load error *)
  let torn = Filename.concat dir "torn.sched.json" in
  let oc = open_out torn in
  output_string oc (String.sub (Rf_replay.Schedule.to_json sched) 0 40);
  close_out oc;
  (match Rf_replay.Schedule.load torn with
  | _ -> Alcotest.fail "torn schedule loaded"
  | exception Rf_replay.Schedule.Format_error m ->
      Alcotest.(check bool) "error names the file" true
        (String.length m >= String.length torn
        && String.sub m 0 (String.length torn) = torn));
  Sys.remove path;
  Sys.remove torn;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* 3b. Corrupt journal lines: detected, skipped, counted                *)

let test_seal_detects_corruption () =
  let line = {|{"seq":1,"t":0.5,"ev":"trial_started","pair":"(a, b)","seed":3}|} in
  let sealed = Event_log.seal line in
  Alcotest.(check bool) "sealed line verifies" true
    (Event_log.check_seal sealed = Event_log.Sealed_ok);
  Alcotest.(check bool) "unsealed line is Unsealed" true
    (Event_log.check_seal line = Event_log.Unsealed);
  (* flip a char that cannot appear in the hex crc, so only the payload
     changes and the mismatch is guaranteed *)
  let corrupt = String.map (fun c -> if c = 'q' then 'x' else c) sealed in
  Alcotest.(check bool) "in-place corruption detected" true
    (Event_log.check_seal corrupt = Event_log.Sealed_bad)

let test_corrupt_journal_line_skipped () =
  let path = Filename.temp_file "rf_journal" ".jsonl" in
  let log = Event_log.open_file path in
  let trial seed =
    Event_log.Trial_finished
      {
        pair = "(a, b)";
        seed;
        domain = 0;
        race = seed mod 2 = 0;
        error = false;
        deadlock = false;
        steps = 10 + seed;
        switches = 2;
        exns = 0;
        wall = 0.1;
        degraded = false;
        level = "full";
        trigger = "";
        evicted = 0;
      }
  in
  List.iter (Event_log.emit log) [ trial 0; trial 1; trial 2 ];
  Event_log.close log;
  (* corrupt the middle record in place, preserving line structure *)
  let lines = String.split_on_char '\n' (read_file path) in
  let lines =
    List.mapi
      (fun i l ->
        if i = 2 then
          String.map (fun c -> if c = '1' then '7' else c) l
        else l)
      lines
  in
  let oc = open_out path in
  output_string oc (String.concat "\n" lines);
  close_out oc;
  let events, skipped = Event_log.load_result path in
  Sys.remove path;
  Alcotest.(check int) "one line skipped" 1 skipped;
  let finished =
    List.filter (function Event_log.Trial_finished _ -> true | _ -> false) events
  in
  Alcotest.(check int) "the other records survive" 2 (List.length finished)

(* ------------------------------------------------------------------ *)
(* 4. Kill/resume with chaos budget trips: degraded trials replay       *)

let test_resume_preserves_degraded_trials () =
  let program = W.Figure1.program in
  let chaos stop_after = Chaos.plan ?stop_after ~budget_rate:0.5 3 in
  let seeds = List.init 8 Fun.id in
  let full =
    Campaign.run ~domains:2 ~phase1_seeds:[ 0 ] ~seeds_per_pair:seeds
      ~chaos:(chaos None) ~detector_budget:100_000 program
  in
  let journal = Filename.temp_file "rf_resume" ".jsonl" in
  let log = Event_log.open_file journal in
  let interrupted =
    Campaign.run ~domains:2 ~phase1_seeds:[ 0 ] ~seeds_per_pair:seeds
      ~chaos:(chaos (Some 3)) ~detector_budget:100_000 ~log program
  in
  Event_log.close log;
  Alcotest.(check bool) "interrupted run stopped early" true
    interrupted.Campaign.stats.Campaign.s_interrupted;
  let resumed =
    Campaign.run ~domains:2 ~phase1_seeds:[ 0 ] ~seeds_per_pair:seeds
      ~chaos:(chaos None) ~detector_budget:100_000 ~resume:journal program
  in
  Sys.remove journal;
  Alcotest.(check bool) "resume replayed journal trials" true
    (resumed.Campaign.stats.Campaign.s_replayed > 0);
  Alcotest.(check string) "resumed fingerprint = uninterrupted fingerprint"
    (Campaign.fingerprint full.Campaign.analysis)
    (Campaign.fingerprint resumed.Campaign.analysis);
  Alcotest.(check int) "degraded trials preserved across resume"
    full.Campaign.stats.Campaign.s_degraded
    resumed.Campaign.stats.Campaign.s_degraded

(* Child-process entry for the kill-during-write test: when re-exec'd
   with RF_STALL_WRITE set, stall inside an atomic write instead of
   running the suites. *)
let () =
  match Sys.getenv_opt "RF_STALL_WRITE" with
  | Some path -> stall_write_child path
  | None -> ()

let () =
  Alcotest.run "resource"
    [
      ( "governor",
        [
          Alcotest.test_case "ladder steps and accounting" `Quick test_ladder_steps;
          Alcotest.test_case "charge/credit arithmetic" `Quick test_accounting;
          Alcotest.test_case "no_degrade raises Budget_stop" `Quick
            test_no_degrade_raises;
          Alcotest.test_case "level/trigger strings round-trip" `Quick
            test_string_round_trips;
        ] );
      ( "governed-detection",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_budget_respected;
            prop_degraded_deterministic;
            prop_no_degrade_stops;
          ]
        @ [
            Alcotest.test_case "fork chain adds nothing at the bottom rung"
              `Quick test_fork_chain_free_at_bottom;
          ] );
      ( "campaign",
        [
          Alcotest.test_case "governed fingerprints domain-invariant" `Quick
            test_campaign_governed_domain_invariant;
          Alcotest.test_case "resume preserves degraded trials" `Quick
            test_resume_preserves_degraded_trials;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "SIGKILL mid-write leaves old artifact" `Quick
            test_kill_during_write;
          Alcotest.test_case "schedule save is atomic + typed errors" `Quick
            test_schedule_save_is_atomic;
          Alcotest.test_case "seal detects corruption" `Quick
            test_seal_detects_corruption;
          Alcotest.test_case "corrupt journal line skipped + counted" `Quick
            test_corrupt_journal_line_skipped;
        ] );
    ]
