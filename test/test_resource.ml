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
      kill/resume and cross-domain fingerprints cover degraded trials;
      the heap watermark (--mem-budget) degrades or exhausts a trial
      through the one trial body.
   5. On-disk formats: one golden sealed journal line per event
      constructor, and an older build's journal and a recorded schedule
      re-render byte for byte through the shared codec. *)

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
    Campaign.run
      {
        Campaign.default_config with
        domains;
        phase1_seeds = [ 0 ];
        seeds_per_pair = [ 0; 1; 2; 3 ];
        cutoff = false;
        chaos = Some chaos;
        detector_budget = Some 100_000;
      }
      program
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
  let sealed = Json.seal line in
  Alcotest.(check bool) "sealed line verifies" true
    (Json.check_seal sealed = Json.Sealed_ok);
  Alcotest.(check bool) "unsealed line is Unsealed" true
    (Json.check_seal line = Json.Unsealed);
  (* flip a char that cannot appear in the hex crc, so only the payload
     changes and the mismatch is guaranteed *)
  let corrupt = String.map (fun c -> if c = 'q' then 'x' else c) sealed in
  Alcotest.(check bool) "in-place corruption detected" true
    (Json.check_seal corrupt = Json.Sealed_bad)

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
  let run ?log ?resume stop_after =
    Campaign.run ?log
      {
        Campaign.default_config with
        domains = 2;
        phase1_seeds = [ 0 ];
        seeds_per_pair = List.init 8 Fun.id;
        cutoff = false;
        chaos = Some (chaos stop_after);
        detector_budget = Some 100_000;
        resume;
      }
      program
  in
  let full = run None in
  let journal = Filename.temp_file "rf_resume" ".jsonl" in
  let log = Event_log.open_file journal in
  let interrupted = run ~log (Some 3) in
  Event_log.close log;
  Alcotest.(check bool) "interrupted run stopped early" true
    interrupted.Campaign.stats.Campaign.s_interrupted;
  let resumed = run ~resume:journal None in
  Sys.remove journal;
  Alcotest.(check bool) "resume replayed journal trials" true
    (resumed.Campaign.stats.Campaign.s_replayed > 0);
  Alcotest.(check string) "resumed fingerprint = uninterrupted fingerprint"
    (Campaign.fingerprint full.Campaign.analysis)
    (Campaign.fingerprint resumed.Campaign.analysis);
  Alcotest.(check int) "degraded trials preserved across resume"
    full.Campaign.stats.Campaign.s_degraded
    resumed.Campaign.stats.Campaign.s_degraded

(* Artifact directories two levels under a missing parent are created
   with their parents, and the campaign writes into them. *)
let test_artifact_dirs_with_missing_parents () =
  let root = Filename.temp_file "rf_dirs" "" in
  Sys.remove root;
  let under name = Filename.concat (Filename.concat root name) "deep" in
  let repro_dir = under "repro" and corpus = under "corpus" in
  let r =
    Campaign.run
      {
        Campaign.default_config with
        domains = 1;
        phase1_seeds = [ 0 ];
        seeds_per_pair = List.init 4 Fun.id;
        cutoff = false;
        repro_dir = Some repro_dir;
        corpus = Some corpus;
        target = "figure1";
      }
      W.Figure1.program
  in
  let files dir = Array.to_list (Sys.readdir dir) in
  Alcotest.(check bool) "a repro was written" true
    (r.Campaign.repro.Rf_campaign.Repro.written <> []);
  Alcotest.(check bool) "repro dir holds schedules" true
    (List.exists (fun f -> Filename.check_suffix f ".sched.json") (files repro_dir));
  Alcotest.(check bool) "corpus index written" true
    (List.mem "index.json" (files corpus));
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; root ]))

(* ------------------------------------------------------------------ *)
(* 4b. The heap watermark (--mem-budget) through the one trial body    *)

(* The watchdog polls the major heap at step 0, and a fresh process may
   have nothing there yet: hold a block that is allocated directly in
   the major heap while the trial runs. *)
let with_major_heap_data f =
  let live = Array.make 200_000 0 in
  let r = f () in
  ignore (Sys.opaque_identity live);
  r

let heap_trial ~no_degrade =
  let init =
    {
      Rf_campaign.Proc_pool.i_target = "figure1";
      i_max_steps = 10_000;
      i_postpone = None;
      i_detector_budget = None;
      i_mem_budget = Some 0.001;
      i_no_degrade = no_degrade;
      i_trial_wall = None;
    }
  in
  let a =
    {
      Rf_campaign.Proc_pool.a_id = 1;
      a_pair = W.Figure1.real_pair;
      a_seed = 3;
      a_crash = false;
      a_stall = 0.0;
      a_tripped = false;
      a_die = false;
      a_torn = false;
      a_hang = false;
    }
  in
  with_major_heap_data (fun () ->
      Rf_campaign.Proc_pool.execute init ~program:W.Figure1.program a)

let test_heap_watermark_degrades () =
  match heap_trial ~no_degrade:false with
  | Rf_campaign.Proc_pool.T_finished f ->
      Alcotest.(check bool) "degraded" true f.t_degraded;
      Alcotest.(check string) "one rung down" "sampled" f.t_level;
      Alcotest.(check string) "tripped by the watermark" "heap-watermark" f.t_trigger
  | _ -> Alcotest.fail "expected a finished trial"

let test_heap_watermark_no_degrade () =
  match heap_trial ~no_degrade:true with
  | Rf_campaign.Proc_pool.T_exhausted e ->
      Alcotest.(check string) "reason" "heap watermark" e.t_reason;
      Alcotest.(check int) "stopped at step 0" 0 e.t_steps
  | _ -> Alcotest.fail "expected an exhausted trial"

(* ------------------------------------------------------------------ *)
(* 5. On-disk formats: the bytes every writer emits, pinned            *)

(* Strings that exercise every escape: quotes, backslashes, the named
   control characters, other control bytes (written as \u00XX), DEL and
   non-ASCII UTF-8 bytes (written raw). *)
let nasty = "q\"b\\s\nn\tt\rr\001\031x\127é→"

(* One entry per golden line: an event per constructor, in declaration
   order, or a record this build no longer writes (the former binary
   recording pass), whose golden line must still load as an unknown
   whole record.  Floats have exact six-digit renderings so every line
   parses back to the same event. *)
type golden_entry = Written of Event_log.event | Retired of string

let journal_entries =
  Event_log.
    [
      Written (Journal_opened { schema = 5 });
      Written (Campaign_started { domains = 2; base_trials = 100; budget = None; cutoff = true });
      Written (Phase1_finished { potential = 2; wall = 0.25; degraded = true; level = nasty });
      Retired "phase1_recorded";
      Written (Wave_started { wave = 0; tasks = 17 });
      Written (Trial_started { pair = nasty; seed = 3; domain = 1 });
      Written
        (Trial_finished
           {
             pair = "(figure1:5(x=), figure1:7(x(read)))";
             seed = 41;
             domain = 0;
             race = true;
             error = false;
             deadlock = true;
             steps = 1234;
             switches = 7;
             exns = 1;
             wall = 0.0625;
             degraded = true;
             level = "sampled";
             trigger = nasty;
             evicted = 9;
           });
      Written
        (Trial_crashed
           { pair = "(a, b)"; seed = 2; domain = 3; exn_ = nasty; backtrace = "l1\nl2\\" });
      Written
        (Trial_exhausted
           {
             pair = "(a, b)";
             seed = 5;
             domain = 0;
             reason = "wall deadline";
             steps = 99;
             wall = 2.5;
           });
      Written (Pair_filtered { pair = "(a, b)"; reason = nasty });
      Written
        (Static_classified
           {
             universe = 9;
             universe_impossible = 7;
             frontier = 2;
             likely = 1;
             unknown = 1;
             impossible = 0;
             filtered = 0;
             wall = 0.000125;
           });
      Written (Pair_resolved { pair = nasty; at_trial = 0 });
      Written (Pair_quarantined { pair = "(a, b)"; crashes = 3; at_trial = -1 });
      Written (Trials_cancelled { pair = "(a, b)"; count = 96 });
      Written (Budget_granted { pair = "(c, d)"; extra = 12 });
      Written (Worker_crashed { domain = 1; attempt = 2; exn_ = nasty });
      Written (Worker_respawned { domain = 1; attempt = 2; backoff = 0.015625 });
      Written (Worker_gave_up { domain = 4 });
      Written (Worker_spawned { worker = 0; pid = 123456 });
      Written (Worker_killed { worker = 1; pid = 654321; reason = nasty });
      Retired "traces_saved";
      Written (Corpus_updated { dir = nasty; added = 1; deduped = 2; total = 3 });
      Written (Resume_loaded { entries = 40; skipped = 1 });
      Written (Campaign_interrupted { executed = 15; remaining = 85 });
      Written
        (Repro_written
           {
             pair = "(a, b)";
             fingerprint = nasty;
             seed = 6;
             file = "repro-0123456789ab.sched.json";
             steps_before = 115;
             steps_after = 50;
             switches_before = 14;
             switches_after = 1;
             oracle_runs = 33;
           });
      Written (Campaign_finished { wall = 1.75; trials = 200; cancelled = 4; throughput = 114.25 });
    ]

let golden_journal = "golden_journal.jsonl"

let golden_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

(* The line each entry pins: a written event rendered at its position, a
   retired record as the golden file keeps it. *)
let journal_lines path =
  let golden = Array.of_list (golden_lines path) in
  List.mapi
    (fun i -> function
      | Written ev ->
          Json.seal (Event_log.to_json ~seq:(i + 1) ~elapsed:(float_of_int i *. 0.5) ev)
      | Retired _ -> golden.(i))
    journal_entries

let test_journal_golden () =
  let golden = golden_lines golden_journal in
  Alcotest.(check int) "one line per entry" (List.length journal_entries)
    (List.length golden);
  List.iter2
    (fun want (line, entry) ->
      match entry with
      | Written ev ->
          Alcotest.(check string) (Event_log.event_name ev) want line;
          Alcotest.(check bool)
            (Event_log.event_name ev ^ " parses back")
            true
            (Event_log.event_of_json line = Some ev)
      | Retired name ->
          Alcotest.(check bool) (name ^ " is sealed") true
            (Json.check_seal line = Json.Sealed_ok);
          Alcotest.(check (option string)) (name ^ " names itself") (Some name)
            (Option.bind (Json.parse_flat line) (fun f -> Json.str f "ev"));
          Alcotest.(check bool) (name ^ " is unknown") true
            (Event_log.event_of_json line = None))
    golden
    (List.combine (journal_lines golden_journal) journal_entries);
  (* The whole file loads as a journal: the retired records are skipped
     without counting as corrupt. *)
  let events, skipped = Event_log.load_result golden_journal in
  Alcotest.(check int) "nothing counted corrupt" 0 skipped;
  Alcotest.(check bool) "every written event loads, in order" true
    (events
    = List.filter_map (function Written ev -> Some ev | Retired _ -> None) journal_entries)

(* A journal an older build wrote re-renders byte for byte through the
   flat codec: parse, drop the seal, render, seal again. *)
let test_old_journal_rerenders () =
  let lines =
    String.split_on_char '\n' (read_file "resume_figure1_chaos3.jsonl")
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "fixture has lines" true (List.length lines > 10);
  List.iter
    (fun line ->
      match Json.parse_flat line with
      | None -> Alcotest.failf "does not parse: %s" line
      | Some fields ->
          let fields = List.filter (fun (k, _) -> k <> "crc") fields in
          Alcotest.(check string) "re-rendered" line
            (Json.seal (Json.render_flat fields)))
    lines

(* The figure1 chaos journal an older build wrote, resumed as it is and
   with the golden journal's phase1_recorded and traces_saved lines
   (records of the former binary recording pass) inserted after its
   header: both resume to the same campaign. *)
let test_recording_lines_resume () =
  let golden_line ev =
    List.find
      (fun l ->
        match Json.parse_flat l with
        | Some fields -> Json.str fields "ev" = Some ev
        | None -> false)
      (String.split_on_char '\n' (read_file golden_journal))
  in
  let original = "resume_figure1_chaos3.jsonl" in
  let with_recording = Filename.temp_file "rf-resume-recorded" ".jsonl" in
  (match String.split_on_char '\n' (read_file original) with
  | header :: rest ->
      Out_channel.with_open_bin with_recording (fun oc ->
          output_string oc
            (String.concat "\n"
               (header :: golden_line "phase1_recorded" :: golden_line "traces_saved"
              :: rest)))
  | [] -> Alcotest.fail "empty journal fixture");
  let resumed journal =
    let w = Option.get (W.Registry.find "figure1") in
    let r =
      Campaign.run
        {
          Campaign.default_config with
          domains = 2;
          seeds_per_pair = List.init 40 Fun.id;
          chaos = Some (Chaos.default 3);
          detector_budget = Some 100000;
          no_degrade = true;
          static = w.W.Workload.static;
          target = "figure1";
          resume = Some journal;
        }
        w.W.Workload.program
    in
    ( r.Campaign.stats.Campaign.s_replayed,
      Campaign.fingerprint r.Campaign.analysis,
      Campaign.confirmed_fingerprint r.Campaign.analysis )
  in
  let n0, fp0, cfp0 = resumed original in
  let n1, fp1, cfp1 = resumed with_recording in
  Sys.remove with_recording;
  Alcotest.(check int) "same trials replayed" n0 n1;
  Alcotest.(check int) "every journaled trial replayed" 20 n1;
  Alcotest.(check string) "fingerprint" fp0 fp1;
  Alcotest.(check string) "confirmed" cfp0 cfp1

let test_schedule_rerenders () =
  let _, sched =
    Fuzzer.record_trial ~target:"fig\"ure\\1" ~max_steps:100_000
      ~program:W.Figure1.program W.Figure1.real_pair 0
  in
  let text = Rf_replay.Schedule.to_json sched in
  Alcotest.(check bool) "an error was recorded" true
    (sched.Rf_replay.Schedule.meta.Rf_replay.Schedule.m_error <> None);
  Alcotest.(check string) "of_json then to_json" text
    (Rf_replay.Schedule.to_json (Rf_replay.Schedule.of_json text))

(* Child-process entry for the kill-during-write test: when re-exec'd
   with RF_STALL_WRITE set, stall inside an atomic write instead of
   running the suites. *)
let () =
  match Sys.getenv_opt "RF_STALL_WRITE" with
  | Some path -> stall_write_child path
  | None -> ()

(* Regenerate the journal golden file (from the repository root):
     dune exec test/test_resource.exe -- --write-golden test/golden_journal.jsonl *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "--write-golden" :: path :: _ ->
      let lines = journal_lines path in
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      Printf.printf "wrote %d journal lines to %s\n" (List.length lines) path;
      exit 0
  | _ -> ()

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
      ( "heap-watermark",
        [
          Alcotest.test_case "degrades one rung" `Quick test_heap_watermark_degrades;
          Alcotest.test_case "no-degrade exhausts at step 0" `Quick
            test_heap_watermark_no_degrade;
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
          Alcotest.test_case "artifact dirs with missing parents" `Quick
            test_artifact_dirs_with_missing_parents;
        ] );
      ( "formats",
        [
          Alcotest.test_case "journal golden lines" `Quick test_journal_golden;
          Alcotest.test_case "old journal re-renders byte-for-byte" `Quick
            test_old_journal_rerenders;
          Alcotest.test_case "schedule re-renders byte-for-byte" `Quick
            test_schedule_rerenders;
          Alcotest.test_case "recording lines in an old journal resume" `Quick
            test_recording_lines_resume;
        ] );
    ]
