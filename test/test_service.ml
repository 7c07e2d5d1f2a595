(* The long-lived campaign service (`serve`):

   1. Retry policy as pure units: jitter determinism and bounds, the
      backoff curve and its cap, budget exhaustion.
   2. Ledger codec: save/load round-trip, tolerance of torn and
      checksum-bad lines, healing on the next save.
   3. Revalidation semantics in-process: verdicts settle exactly once
      per cycle, quarantine after N strikes under injected failures,
      fixed -> regressed transitions, and the corpus stays strictly
      verifiable through torn-index chaos.
   4. Crash safety end to end: a re-exec'd serve process SIGKILLs
      itself mid-cycle (chaos die_reval); the restarted service resumes
      from the ledger without redoing settled items and produces the
      byte-identical cycle verdict fingerprint of an unkilled run. *)

module Campaign = Rf_campaign.Campaign
module Chaos = Rf_campaign.Chaos
module Corpus = Rf_campaign.Corpus
module Service = Rf_campaign.Service
module Retry = Rf_campaign.Service.Retry
module Ledger = Rf_campaign.Service.Ledger
module W = Rf_workloads

let seeds n = List.init n Fun.id

let resolve name =
  match W.Registry.find name with
  | Some w -> Ok w.W.Workload.program
  | None -> Error ("unknown workload " ^ name)

let tmpdir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path)
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  dir

let rec copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let s = Filename.concat src name and d = Filename.concat dst name in
      if Sys.is_directory s then copy_dir s d
      else begin
        let ic = open_in_bin s in
        let content = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let oc = open_out_bin d in
        output_string oc content;
        close_out oc
      end)
    (Sys.readdir src)

(* One figure1 campaign, plus one phase-1 recording ingested as a
   "trace" entry the way an older build's --save-traces did: the corpus
   holds an error repro and a trace file — items of both revalidation
   flavors (replay and integrity). *)
let build_corpus dir =
  ignore
    (Campaign.run
       {
         Campaign.default_config with
         domains = 2;
         phase1_seeds = seeds 3;
         seeds_per_pair = seeds 20;
         target = "figure1";
         corpus = Some dir;
       }
       W.Figure1.program);
  let traces = Filename.concat dir "traces" in
  Unix.mkdir traces 0o755;
  let src = Filename.concat traces "trace-seed0.rfbt" in
  Out_channel.with_open_bin src (fun oc ->
      output_string oc "RFBT\001\000 opaque bytes of an older build's recording");
  let e =
    Corpus.ingest_file ~dir ~kind:"trace" ~key:"figure1#seed0" ~target:"figure1"
      ~seed:0 ~src ()
  in
  ignore (Corpus.update ~dir [ e ])

(* Revalidation-only config: the token bucket never grants a campaign,
   so cycle content is purely the corpus re-check — the deterministic
   half the crash-resume fingerprint contract covers. *)
let reval_only ?chaos ?(cycles = 1) ?(retry = Retry.default) () =
  {
    Service.default_config with
    Service.v_cycles = cycles;
    v_period = 0.0;
    v_rate = 0.0;
    v_burst = 0.0;
    v_retry = retry;
    v_campaign = { Service.default_config.v_campaign with chaos };
  }

(* ------------------------------------------------------------------ *)
(* 1. Retry policy                                                     *)

let test_retry_jitter_deterministic () =
  let u1 = Retry.jitter_unit ~key:"error:abc" ~attempt:1 in
  let u2 = Retry.jitter_unit ~key:"error:abc" ~attempt:1 in
  Alcotest.(check (float 0.0)) "same (key, attempt) draws identically" u1 u2;
  let d1 = Retry.delay Retry.default ~key:"error:abc" ~attempt:2 in
  let d2 = Retry.delay Retry.default ~key:"error:abc" ~attempt:2 in
  Alcotest.(check (float 0.0)) "delay is reproducible" d1 d2;
  Alcotest.(check bool) "different keys decorrelate" true
    (Retry.jitter_unit ~key:"error:abc" ~attempt:1
    <> Retry.jitter_unit ~key:"error:xyz" ~attempt:1);
  Alcotest.(check bool) "different attempts decorrelate" true
    (Retry.jitter_unit ~key:"error:abc" ~attempt:1
    <> Retry.jitter_unit ~key:"error:abc" ~attempt:2)

let test_retry_jitter_bounds () =
  for a = 1 to 50 do
    let u = Retry.jitter_unit ~key:(Printf.sprintf "k%d" a) ~attempt:a in
    Alcotest.(check bool) "unit draw in [0, 1)" true (u >= 0.0 && u < 1.0)
  done

let test_retry_backoff_curve () =
  let p = { Retry.default with Retry.rp_jitter = 0.0 } in
  Alcotest.(check (float 1e-9)) "first delay = base" p.Retry.rp_base
    (Retry.delay p ~key:"k" ~attempt:1);
  Alcotest.(check (float 1e-9)) "second delay doubles"
    (p.Retry.rp_base *. p.Retry.rp_factor)
    (Retry.delay p ~key:"k" ~attempt:2);
  Alcotest.(check (float 1e-9)) "deep attempts hit the cap" p.Retry.rp_max
    (Retry.delay p ~key:"k" ~attempt:30)

let test_retry_jitter_stays_in_band () =
  let p = Retry.default in
  for a = 1 to 20 do
    let d = Retry.delay p ~key:"band" ~attempt:a in
    let nominal =
      Float.min p.Retry.rp_max
        (p.Retry.rp_base *. (p.Retry.rp_factor ** float_of_int (a - 1)))
    in
    Alcotest.(check bool) "jittered delay within +/- rp_jitter" true
      (d >= nominal *. (1.0 -. p.Retry.rp_jitter) -. 1e-9
      && d <= nominal *. (1.0 +. p.Retry.rp_jitter) +. 1e-9
      && d >= 0.0)
  done

let test_retry_exhaustion () =
  let p = { Retry.default with Retry.rp_max_attempts = 3 } in
  Alcotest.(check bool) "attempt 2 of 3 not exhausted" false
    (Retry.exhausted p ~attempt:2);
  Alcotest.(check bool) "attempt 3 of 3 exhausted" true
    (Retry.exhausted p ~attempt:3);
  Alcotest.(check bool) "past the budget stays exhausted" true
    (Retry.exhausted p ~attempt:7)

(* ------------------------------------------------------------------ *)
(* 2. Ledger codec                                                     *)

let sample_ledger () =
  let t = Ledger.load "/nonexistent-serve-dir" |> fst in
  t.Ledger.l_cycle <- 3;
  Hashtbl.replace t.Ledger.l_items ("error", "fp1")
    {
      Ledger.li_kind = "error";
      li_key = "fp1";
      li_verdict = Ledger.Still_racy;
      li_cycle = 2;
      li_attempts = 2;
      li_strikes = 0;
      li_quarantine = "";
    };
  Hashtbl.replace t.Ledger.l_items ("trace", "figure1:0")
    {
      Ledger.li_kind = "trace";
      li_key = "figure1:0";
      li_verdict = Ledger.Failed;
      li_cycle = 2;
      li_attempts = 3;
      li_strikes = 3;
      li_quarantine = "3 consecutive failed cycle(s); last: boom";
    };
  Hashtbl.replace t.Ledger.l_targets "figure1"
    {
      Ledger.lt_name = "figure1";
      lt_tokens = 1.5;
      lt_mtime = 0.0;
      lt_campaigns = 4;
      lt_confirmed = "cafe";
    };
  t.Ledger.l_cycles <-
    [
      {
        Ledger.lc_cycle = 1;
        lc_fingerprint = "aaaa";
        lc_checked = 2;
        lc_still = 1;
        lc_fixed = 0;
        lc_regressed = 0;
        lc_intact = 0;
        lc_failed = 1;
        lc_campaigns = 2;
        lc_wreq = 2;
        lc_wact = 1;
      };
    ];
  t

let test_ledger_roundtrip () =
  let dir = tmpdir "rf-ledger-rt" in
  Unix.mkdir dir 0o755;
  let t = sample_ledger () in
  Ledger.save ~dir t;
  let got, skipped = Ledger.load dir in
  Alcotest.(check int) "no skips on a clean file" 0 skipped;
  Alcotest.(check int) "cycle counter survives" 3 got.Ledger.l_cycle;
  Alcotest.(check int) "items survive" 2 (Hashtbl.length got.Ledger.l_items);
  let q = Hashtbl.find got.Ledger.l_items ("trace", "figure1:0") in
  Alcotest.(check string) "quarantine reason survives"
    "3 consecutive failed cycle(s); last: boom" q.Ledger.li_quarantine;
  Alcotest.(check int) "strikes survive" 3 q.Ledger.li_strikes;
  let tg = Hashtbl.find got.Ledger.l_targets "figure1" in
  Alcotest.(check (float 1e-9)) "tokens survive" 1.5 tg.Ledger.lt_tokens;
  Alcotest.(check int) "campaign count survives" 4 tg.Ledger.lt_campaigns;
  (match got.Ledger.l_cycles with
  | [ c ] ->
      Alcotest.(check string) "cycle fingerprint survives" "aaaa"
        c.Ledger.lc_fingerprint;
      Alcotest.(check int) "fleet width survives" 1 c.Ledger.lc_wact
  | l -> Alcotest.failf "expected 1 completed cycle, got %d" (List.length l))

let test_ledger_tolerates_torn_lines () =
  let dir = tmpdir "rf-ledger-torn" in
  Unix.mkdir dir 0o755;
  let t = sample_ledger () in
  Ledger.save ~dir t;
  (* a torn tail (no newline, invalid JSON) and a bit-flipped seal *)
  let path = Ledger.path dir in
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let flipped =
    (* corrupt the last sealed line's payload without touching others *)
    let i = String.rindex_from content (String.length content - 2) '{' in
    String.mapi (fun j c -> if j = i + 1 then '~' else c) content
  in
  let oc = open_out_bin path in
  output_string oc flipped;
  output_string oc "{\"torn\":tru";
  close_out oc;
  let got, skipped = Ledger.load dir in
  Alcotest.(check int) "both bad lines skipped" 2 skipped;
  Alcotest.(check int) "intact items still load" 2
    (Hashtbl.length got.Ledger.l_items);
  (* the next save heals: a fresh load sees zero skips *)
  Ledger.save ~dir got;
  let _, skipped' = Ledger.load dir in
  Alcotest.(check int) "save heals the file" 0 skipped'

(* ------------------------------------------------------------------ *)
(* 3. Revalidation semantics, in process                               *)

let test_serve_revalidates_and_seals_cycles () =
  let dir = tmpdir "rf-serve-basic" in
  build_corpus dir;
  let n = List.length (Corpus.load dir) in
  Alcotest.(check bool) "corpus has error + trace entries" true (n >= 2);
  let code = Service.serve (reval_only ~cycles:2 ()) ~resolve ~dir in
  Alcotest.(check int) "clean exit" 0 code;
  let ledger, skipped = Ledger.load dir in
  Alcotest.(check int) "clean ledger" 0 skipped;
  Alcotest.(check int) "two cycles sealed" 2
    (List.length ledger.Ledger.l_cycles);
  (match ledger.Ledger.l_cycles with
  | [ c1; c2 ] ->
      Alcotest.(check int) "every entry checked in cycle 1" n
        c1.Ledger.lc_checked;
      Alcotest.(check bool) "the repro still replays" true
        (c1.Ledger.lc_still >= 1);
      Alcotest.(check bool) "traces are intact" true (c1.Ledger.lc_intact >= 1);
      Alcotest.(check int) "no failures" 0 c1.Ledger.lc_failed;
      Alcotest.(check string) "stable corpus, stable fingerprint"
        c1.Ledger.lc_fingerprint c2.Ledger.lc_fingerprint
  | _ -> Alcotest.fail "expected exactly 2 cycles");
  match Corpus.verify ~dir with
  | Ok _ -> ()
  | Error p -> Alcotest.failf "corpus broken: %s" (String.concat "; " p)

let test_serve_quarantines_after_strikes () =
  let dir = tmpdir "rf-serve-quarantine" in
  build_corpus dir;
  (* item 1's every attempt fails; one strike quarantines *)
  let chaos = Chaos.plan ~fail_reval:1 0 in
  let retry =
    { Retry.default with Retry.rp_base = 0.001; rp_strikes = 1 }
  in
  let code = Service.serve (reval_only ~chaos ~retry ()) ~resolve ~dir in
  Alcotest.(check int) "fault never crashes the loop" 0 code;
  let ledger, _ = Ledger.load dir in
  let quarantined =
    Hashtbl.fold
      (fun _ i acc -> if i.Ledger.li_quarantine <> "" then i :: acc else acc)
      ledger.Ledger.l_items []
  in
  (match quarantined with
  | [ i ] ->
      Alcotest.(check bool) "verdict is failed" true
        (i.Ledger.li_verdict = Ledger.Failed);
      Alcotest.(check int) "full retry budget spent"
        Retry.default.Retry.rp_max_attempts i.Ledger.li_attempts;
      Alcotest.(check bool) "reason is journaled" true
        (i.Ledger.li_quarantine <> "")
  | l -> Alcotest.failf "expected 1 quarantined item, got %d" (List.length l));
  (* a second cycle skips the quarantined item instead of retrying it
     (cycle budgets count ledger-completed cycles, so ask for 2) *)
  let code = Service.serve (reval_only ~cycles:2 ()) ~resolve ~dir in
  Alcotest.(check int) "second run clean" 0 code;
  let ledger, _ = Ledger.load dir in
  (match List.rev ledger.Ledger.l_cycles with
  | last :: _ ->
      let n = List.length (Corpus.load dir) in
      Alcotest.(check int) "quarantined item not re-checked" (n - 1)
        last.Ledger.lc_checked
  | [] -> Alcotest.fail "no cycles sealed");
  match Corpus.verify ~dir with
  | Ok _ -> ()
  | Error p -> Alcotest.failf "corpus broken: %s" (String.concat "; " p)

let test_serve_flags_regressions () =
  let dir = tmpdir "rf-serve-regress" in
  build_corpus dir;
  ignore (Service.serve (reval_only ()) ~resolve ~dir);
  (* rewrite the repro's ledger verdict to "fixed": the next cycle's
     successful replay must flag it regressed, not merely still-racy *)
  let ledger, _ = Ledger.load dir in
  Hashtbl.iter
    (fun key (i : Ledger.item) ->
      if i.Ledger.li_kind = "error" then
        Hashtbl.replace ledger.Ledger.l_items key
          { i with Ledger.li_verdict = Ledger.Fixed })
    (Hashtbl.copy ledger.Ledger.l_items);
  Ledger.save ~dir ledger;
  ignore (Service.serve (reval_only ~cycles:2 ()) ~resolve ~dir);
  let ledger, _ = Ledger.load dir in
  let regressed =
    Hashtbl.fold
      (fun _ i acc ->
        if i.Ledger.li_verdict = Ledger.Regressed then i :: acc else acc)
      ledger.Ledger.l_items []
  in
  Alcotest.(check int) "fixed -> reproducing is a regression" 1
    (List.length regressed)

let test_serve_heals_torn_index () =
  let dir = tmpdir "rf-serve-torn" in
  build_corpus dir;
  let chaos = Chaos.plan ~torn_index_cycle:1 ~torn_ledger_cycle:1 0 in
  let code = Service.serve (reval_only ~chaos ()) ~resolve ~dir in
  Alcotest.(check int) "torn stores never crash the loop" 0 code;
  (match Corpus.verify ~dir with
  | Ok _ -> ()
  | Error p ->
      Alcotest.failf "corpus not healed: %s" (String.concat "; " p));
  let _, skipped = Ledger.load dir in
  Alcotest.(check int) "ledger healed" 0 skipped

(* ------------------------------------------------------------------ *)
(* 4. SIGKILL mid-cycle -> restart -> identical fingerprint            *)

(* Child mode (re-exec'd): serve with die_reval chaos — settles one
   item, then SIGKILLs itself just before persisting the second. *)
let serve_kill_child dir =
  let chaos = Chaos.plan ~die_reval:2 0 in
  ignore (Service.serve (reval_only ~chaos ()) ~resolve ~dir);
  (* unreachable: the chaos kill fires first *)
  exit 99

let test_serve_kill_restart_fingerprint_parity () =
  let src = tmpdir "rf-serve-src" in
  build_corpus src;
  Alcotest.(check bool) "needs >= 2 items for a mid-cycle kill" true
    (List.length (Corpus.load src) >= 2);
  (* baseline: one unkilled revalidation cycle *)
  let base = tmpdir "rf-serve-base" in
  copy_dir src base;
  ignore (Service.serve (reval_only ()) ~resolve ~dir:base);
  let baseline, _ = Ledger.load base in
  let baseline_fp =
    match baseline.Ledger.l_cycles with
    | [ c ] -> c.Ledger.lc_fingerprint
    | _ -> Alcotest.fail "baseline did not seal exactly one cycle"
  in
  (* killed: re-exec this binary in child mode; it SIGKILLs itself *)
  let dir = tmpdir "rf-serve-kill" in
  copy_dir src dir;
  let env =
    Array.append (Unix.environment ()) [| "RF_SERVE_KILL=" ^ dir |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin devnull devnull
  in
  let _, status = Unix.waitpid [] pid in
  Unix.close devnull;
  (match status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | s ->
      Alcotest.failf "child should die by SIGKILL, got %s"
        (match s with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s));
  (* mid-crash state: exactly the one settled verdict, no seal *)
  let mid, _ = Ledger.load dir in
  Alcotest.(check int) "one item settled before the kill" 1
    (Hashtbl.length mid.Ledger.l_items);
  Alcotest.(check int) "interrupted cycle not sealed" 0
    (List.length mid.Ledger.l_cycles);
  (* restart: resumes cycle 1, does not redo the settled item *)
  let code = Service.serve (reval_only ()) ~resolve ~dir in
  Alcotest.(check int) "restart drains cleanly" 0 code;
  let resumed, _ = Ledger.load dir in
  (match resumed.Ledger.l_cycles with
  | [ c ] ->
      Alcotest.(check string)
        "kill + restart fingerprints byte-identical to unkilled run"
        baseline_fp c.Ledger.lc_fingerprint;
      Alcotest.(check int) "every item settled exactly once in cycle 1"
        (Hashtbl.length baseline.Ledger.l_items)
        c.Ledger.lc_checked
  | _ -> Alcotest.fail "restart did not seal exactly one cycle");
  Hashtbl.iter
    (fun _ (i : Ledger.item) ->
      Alcotest.(check int)
        (Printf.sprintf "item %s:%s settled in cycle 1 only" i.Ledger.li_kind
           i.Ledger.li_key)
        1 i.Ledger.li_cycle;
      Alcotest.(check int) "no retry inflation across the kill" 1
        i.Ledger.li_attempts)
    resumed.Ledger.l_items;
  match Corpus.verify ~dir with
  | Ok _ -> ()
  | Error p -> Alcotest.failf "corpus broken: %s" (String.concat "; " p)

(* ------------------------------------------------------------------ *)

let () =
  (match Sys.getenv_opt "RF_SERVE_KILL" with
  | Some dir -> serve_kill_child dir
  | None -> ());
  Alcotest.run "service"
    [
      ( "retry",
        [
          Alcotest.test_case "jitter deterministic" `Quick
            test_retry_jitter_deterministic;
          Alcotest.test_case "jitter bounds" `Quick test_retry_jitter_bounds;
          Alcotest.test_case "backoff curve" `Quick test_retry_backoff_curve;
          Alcotest.test_case "jitter band" `Quick
            test_retry_jitter_stays_in_band;
          Alcotest.test_case "budget exhaustion" `Quick test_retry_exhaustion;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "roundtrip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "torn lines" `Quick
            test_ledger_tolerates_torn_lines;
        ] );
      ( "revalidation",
        [
          Alcotest.test_case "cycles seal verdicts" `Quick
            test_serve_revalidates_and_seals_cycles;
          Alcotest.test_case "quarantine after strikes" `Quick
            test_serve_quarantines_after_strikes;
          Alcotest.test_case "fixed -> regressed" `Quick
            test_serve_flags_regressions;
          Alcotest.test_case "torn index healed" `Quick
            test_serve_heals_torn_index;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "SIGKILL mid-cycle, restart, identical print"
            `Quick test_serve_kill_restart_fingerprint_parity;
        ] );
    ]
