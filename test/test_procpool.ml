(* Multi-process campaign tier and the persistent corpus:

   1. Frame codec precision: every way a frame can be defective —
      truncated, bit-flipped, absurd length — is detected, never
      misparsed; intact frames round-trip through a streaming buffer.
   2. Real worker processes: a SIGKILLed worker surfaces as Ev_died
      with its in-flight assignment requeued, a torn result frame is
      rejected with a checksum-mismatch reason, and the fleet respawns;
      the supervisor's side of a round trip allocates no major-heap
      block.
   3. Fingerprint parity: a campaign over real worker processes — even
      one whose workers are SIGKILLed mid-wave by chaos — produces the
      exact fingerprints of the in-process run.
   4. Corpus: (kind, key) dedup across consecutive campaigns, strict
      [verify] after tampering, and SIGKILL during an index rewrite
      leaves the previous index byte-intact and loadable. *)

open Rf_util
module Campaign = Rf_campaign.Campaign
module Event_log = Rf_campaign.Event_log
module Chaos = Rf_campaign.Chaos
module Corpus = Rf_campaign.Corpus
module Proc_pool = Rf_campaign.Proc_pool
module Frame = Rf_campaign.Proc_pool.Frame
module Supervisor = Rf_campaign.Supervisor
module W = Rf_workloads

let fp r = Campaign.fingerprint r.Campaign.analysis
let cfp r = Campaign.confirmed_fingerprint r.Campaign.analysis
let seeds n = List.init n Fun.id

(* The test binary has no campaign-worker mode; the CLI binary does.
   Tests run from _build/default/test, and test/dune declares the dep. *)
let worker_cmd = [| "../bin/main.exe"; "campaign-worker" |]

let spec ?(workers = 2) ?(heartbeat = 30.) () =
  {
    Proc_pool.sp_cmd = worker_cmd;
    sp_workers = workers;
    sp_heartbeat = heartbeat;
    sp_rlimit_as_mb = None;
    sp_rlimit_cpu_s = None;
    sp_policy = Supervisor.default_policy;
    sp_target = "figure1";
  }

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)

let test_frame_roundtrip_streaming () =
  let buf = Buffer.create 64 in
  (* feed two frames byte by byte: decode must return None on every
     prefix and each payload exactly once, in order *)
  let wire = Frame.encode "hello" ^ Frame.encode "world" in
  let got = ref [] in
  String.iter
    (fun c ->
      Buffer.add_char buf c;
      match Frame.decode buf with
      | Some p -> got := p :: !got
      | None -> ())
    wire;
  Alcotest.(check (list string)) "both payloads, in order" [ "hello"; "world" ]
    (List.rev !got);
  Alcotest.(check int) "buffer fully consumed" 0 (Buffer.length buf)

let test_frame_prefix_is_not_an_error () =
  let whole = Frame.encode "payload" in
  for cut = 0 to String.length whole - 1 do
    let buf = Buffer.create 32 in
    Buffer.add_string buf (String.sub whole 0 cut);
    match Frame.decode buf with
    | None -> ()
    | Some _ -> Alcotest.failf "truncated frame (cut at %d) decoded" cut
  done

let test_frame_bitflip_is_corrupt () =
  let whole = Frame.encode "some payload bytes" in
  (* flipping any payload or checksum byte must raise Corrupt naming a
     checksum mismatch (length-prefix flips may instead report a bad
     length, tested separately) *)
  for i = 4 to String.length whole - 1 do
    let b = Bytes.of_string whole in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
    let buf = Buffer.create 32 in
    Buffer.add_bytes buf b;
    match Frame.decode buf with
    | Some _ | None -> Alcotest.failf "bit-flip at byte %d went undetected" i
    | exception Frame.Corrupt msg ->
        if not (contains ~needle:"checksum mismatch" msg) then
          Alcotest.failf "flip at %d: imprecise error %S" i msg
  done

let test_frame_bad_length_is_corrupt () =
  let check name wire =
    let buf = Buffer.create 32 in
    Buffer.add_string buf wire;
    match Frame.decode buf with
    | Some _ | None -> Alcotest.failf "%s went undetected" name
    | exception Frame.Corrupt msg ->
        Alcotest.(check bool)
          (name ^ ": error mentions the length")
          true
          (contains ~needle:"length" msg)
  in
  (* zero length *)
  check "zero-length frame" "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";
  (* length far beyond the sanity cap *)
  check "oversized frame" "\xff\xff\xff\x7f rest never read"

(* ------------------------------------------------------------------ *)
(* Real worker processes                                               *)

let mk_init () =
  {
    Proc_pool.i_target = "figure1";
    i_max_steps = 10_000;
    i_postpone = None;
    i_detector_budget = None;
    i_mem_budget = None;
    i_no_degrade = false;
    i_trial_wall = None;
  }

let mk_assignment ?(id = 1) ?(die = false) ?(torn = false) () =
  let s1 = Site.make ~file:"figure1" ~line:1 "t" in
  let s2 = Site.make ~file:"figure1" ~line:2 "u" in
  {
    Proc_pool.a_id = id;
    a_pair = Site.Pair.make s1 s2;
    a_seed = 0;
    a_crash = false;
    a_stall = 0.;
    a_tripped = false;
    a_die = die;
    a_torn = torn;
    a_hang = false;
  }

(* Drive the pool until [pred] accepts an event; fail after [deadline]. *)
let poll_until t ~deadline pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if Unix.gettimeofday () -. t0 > deadline then
      Alcotest.fail "pool event did not arrive before the deadline";
    let evs = Proc_pool.poll t ~timeout:0.2 in
    match List.find_opt pred evs with Some e -> e | None -> go ()
  in
  go ()

let with_pool ?workers f =
  let t = Proc_pool.create (spec ?workers ()) ~init:(mk_init ()) in
  Fun.protect ~finally:(fun () -> Proc_pool.kill_all t) (fun () ->
      if not (Proc_pool.await_ready t ~timeout:30.) then
        Alcotest.fail "no worker completed its handshake";
      f t)

let test_worker_runs_an_assignment () =
  with_pool (fun t ->
      let w =
        match Proc_pool.idle_workers t with
        | w :: _ -> w
        | [] -> Alcotest.fail "ready pool has no idle worker"
      in
      Proc_pool.assign t ~worker:w (mk_assignment ~id:7 ());
      match
        poll_until t ~deadline:15. (function
          | Proc_pool.Ev_result _ -> true
          | _ -> false)
      with
      | Proc_pool.Ev_result { ev_id; ev_result; _ } ->
          Alcotest.(check int) "assignment id echoed" 7 ev_id;
          (match ev_result with
          | Proc_pool.T_finished _ -> ()
          | T_crashed { t_exn; _ } -> Alcotest.failf "worker crashed: %s" t_exn
          | T_exhausted { t_reason; _ } ->
              Alcotest.failf "worker exhausted: %s" t_reason)
      | _ -> assert false)

let test_sigkilled_worker_requeues_in_flight () =
  with_pool (fun t ->
      let w = List.hd (Proc_pool.idle_workers t) in
      (* a_die: the worker SIGKILLs itself on receipt — a real process
         death with the assignment in flight *)
      Proc_pool.assign t ~worker:w (mk_assignment ~id:42 ~die:true ());
      match
        poll_until t ~deadline:15. (function
          | Proc_pool.Ev_died _ -> true
          | _ -> false)
      with
      | Proc_pool.Ev_died { ev_in_flight; ev_respawning; _ } ->
          Alcotest.(check (option int)) "in-flight assignment surfaced"
            (Some 42) ev_in_flight;
          Alcotest.(check bool) "slot respawns" true ev_respawning;
          (* the slot must come back: a fresh handshake after backoff *)
          (match
             poll_until t ~deadline:20. (function
               | Proc_pool.Ev_ready _ -> true
               | _ -> false)
           with
          | Proc_pool.Ev_ready _ -> ()
          | _ -> assert false)
      | _ -> assert false)

let test_torn_result_frame_kills_the_worker () =
  with_pool (fun t ->
      let w = List.hd (Proc_pool.idle_workers t) in
      (* a_torn: the worker replies with a deliberately corrupted frame;
         the supervisor must report a checksum mismatch, kill the
         worker, and requeue the assignment — never misparse *)
      Proc_pool.assign t ~worker:w (mk_assignment ~id:9 ~torn:true ());
      match
        poll_until t ~deadline:15. (function
          | Proc_pool.Ev_died _ -> true
          | _ -> false)
      with
      | Proc_pool.Ev_died { ev_in_flight; ev_reason; ev_killed; _ } ->
          Alcotest.(check (option int)) "assignment requeued" (Some 9)
            ev_in_flight;
          Alcotest.(check bool) "supervisor killed it" true ev_killed;
          Alcotest.(check bool)
            ("reason pinpoints the corruption: " ^ ev_reason)
            true
            (contains ~needle:"checksum mismatch" ev_reason)
      | _ -> assert false)

(* An idle fleet stops as soon as its workers exit: shutdown waits on
   their pipes, not on a polling clock, so ten shutdowns of a two-worker
   fleet take well under the 10 ms a poll-and-sleep loop pays per
   shutdown.  No child outlives a shutdown. *)
let test_shutdown_does_not_sleep () =
  let n = 10 in
  let pids = ref [] in
  let total =
    List.fold_left
      (fun acc _ ->
        let t = Proc_pool.create (spec ()) ~init:(mk_init ()) in
        let ready = Proc_pool.await_ready t ~timeout:30. in
        (* both workers past their handshake *)
        let deadline = Unix.gettimeofday () +. 30. in
        while List.length (Proc_pool.idle_workers t) < 2 && Unix.gettimeofday () < deadline do
          ignore (Proc_pool.poll t ~timeout:0.05)
        done;
        if not ready then Alcotest.fail "no worker completed its handshake";
        pids := Proc_pool.pids t @ !pids;
        let t0 = Unix.gettimeofday () in
        Proc_pool.shutdown t ~grace:2.0;
        let dt = Unix.gettimeofday () -. t0 in
        if Proc_pool.pids t <> [] then Alcotest.fail "the fleet still holds a pid";
        acc +. dt)
      0.0 (List.init n Fun.id)
  in
  List.iter
    (fun pid ->
      match Unix.kill pid 0 with
      | () -> Alcotest.failf "worker %d outlived its shutdown" pid
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
    !pids;
  if total > float_of_int n *. 0.005 then
    Alcotest.failf "%d shutdowns took %.1f ms" n (total *. 1000.)

(* The supervisor's half of a round trip allocates no major-heap block:
   the pool reads every pipe into one buffer it owns.  A 64 KB buffer
   made per poll goes straight into the major heap, 8,193 words a trial
   result; with such a buffer this test read about 8,200 words per round
   trip and 20 major collections.  On OCaml 5.1 [Gc.quick_stat]'s
   [major_words] is sampled at major slices and misses a block allocated
   since the last one; [Gc.counters] adds the calling domain's live
   count, so the words come from it, once it has been seen to count one
   such block.  [major_collections] counts completed cycles, a global
   counter read as it stands; the full major first leaves no cycle half
   done to end inside the loop. *)
let test_round_trips_allocate_no_major_block () =
  let major_words () =
    let _, _, w = Gc.counters () in
    w
  in
  let w = major_words () in
  ignore (Sys.opaque_identity (Bytes.create 65536));
  if major_words () -. w < 8192. then
    Alcotest.fail "Gc.counters misses a direct major-heap allocation";
  with_pool ~workers:1 (fun t ->
      let n = 200 in
      Gc.full_major ();
      let w0 = major_words () in
      let c0 = (Gc.quick_stat ()).Gc.major_collections in
      for id = 1 to n do
        Proc_pool.assign t ~worker:0 (mk_assignment ~id ());
        match
          poll_until t ~deadline:15. (function
            | Proc_pool.Ev_result _ -> true
            | _ -> false)
        with
        | Proc_pool.Ev_result { ev_id; _ } when ev_id = id -> ()
        | _ -> Alcotest.failf "round trip %d: another assignment's result" id
      done;
      let per_trip = (major_words () -. w0) /. float_of_int n in
      let collections = (Gc.quick_stat ()).Gc.major_collections - c0 in
      if per_trip > 256. then
        Alcotest.failf "%.0f major-heap words per round trip (bound 256)"
          per_trip;
      if collections > 2 then
        Alcotest.failf "%d major collections over %d round trips (bound 2)"
          collections n)

(* ------------------------------------------------------------------ *)
(* Fingerprint parity across execution tiers                           *)

let run_fig1 ?chaos ?proc ?corpus ?log () =
  Campaign.run ?log
    {
      Campaign.default_config with
      domains = 2;
      seeds_per_pair = seeds 20;
      chaos;
      proc;
      corpus;
      target = "figure1";
    }
    W.Figure1.program

let test_proc_campaign_fingerprint_parity () =
  let inproc = run_fig1 () in
  let journal = Filename.temp_file "rf-proc" ".journal" in
  let log = Event_log.open_file journal in
  let proc = Fun.protect ~finally:(fun () -> Event_log.close log)
      (fun () -> run_fig1 ~proc:(spec ()) ~log ()) in
  (* prove the proc tier really ran (no silent in-process fallback) *)
  let spawned =
    List.exists
      (function Event_log.Worker_spawned _ -> true | _ -> false)
      (Event_log.load journal)
  in
  Alcotest.(check bool) "worker processes were spawned" true spawned;
  Alcotest.(check string) "fingerprint parity" (fp inproc) (fp proc);
  Alcotest.(check string) "confirmed parity" (cfp inproc) (cfp proc)

let test_proc_campaign_survives_worker_sigkill () =
  let inproc = run_fig1 () in
  (* chaos kill_assignment SIGKILLs the worker holding the Nth
     assignment: a real mid-wave process death.  The requeue/respawn
     path must reproduce the in-process fingerprints exactly. *)
  let chaos = Chaos.plan ~kill_assignment:5 0 in
  let killed = run_fig1 ~chaos ~proc:(spec ()) () in
  Alcotest.(check bool) "a worker actually died" true
    (killed.Campaign.stats.Campaign.s_worker_crashes > 0);
  Alcotest.(check string) "fingerprint parity under SIGKILL" (fp inproc)
    (fp killed);
  Alcotest.(check string) "confirmed parity under SIGKILL" (cfp inproc)
    (cfp killed)

(* ------------------------------------------------------------------ *)
(* Resume across tiers and versions                                    *)

(* figure1 under the --chaos preset, 100 trials per pair on two slots;
   [stop_after] is the deterministic kill. *)
let run_fig1_chaos ?proc ?resume ?log ?stop_after () =
  Campaign.run ?log
    {
      Campaign.default_config with
      domains = 2;
      chaos = Some { (Chaos.default 7) with Chaos.c_stop_after = stop_after };
      proc;
      resume;
      target = "figure1";
    }
    W.Figure1.program

(* Kill a run after 15 trials on one tier, resume its journal on the
   other tier, and compare against the uninterrupted run. *)
let kill_then_resume ~killed_proc ~resumed_proc =
  let journal = Filename.temp_file "rf-cross-tier" ".journal" in
  let log = Event_log.open_file journal in
  let killed =
    Fun.protect
      ~finally:(fun () -> Event_log.close log)
      (fun () -> run_fig1_chaos ?proc:killed_proc ~log ~stop_after:15 ())
  in
  Alcotest.(check bool) "the first run was cut" true
    killed.Campaign.stats.Campaign.s_interrupted;
  let resumed = run_fig1_chaos ?proc:resumed_proc ~resume:journal () in
  Sys.remove journal;
  let on_workers r = r.Campaign.stats.Campaign.s_proc_active > 0 in
  Alcotest.(check bool) "the killed run's tier" (killed_proc <> None)
    (on_workers killed);
  Alcotest.(check bool) "the resumed run's tier" (resumed_proc <> None)
    (on_workers resumed);
  Alcotest.(check bool) "trials replayed from the journal" true
    (resumed.Campaign.stats.Campaign.s_replayed > 0);
  resumed

let test_resume_across_tiers () =
  let whole = run_fig1_chaos () in
  let on_domains =
    kill_then_resume ~killed_proc:(Some (spec ())) ~resumed_proc:None
  in
  Alcotest.(check string) "worker journal resumed on domains" (fp whole)
    (fp on_domains);
  Alcotest.(check string) "confirmed, worker journal on domains" (cfp whole)
    (cfp on_domains);
  let on_workers =
    kill_then_resume ~killed_proc:None ~resumed_proc:(Some (spec ()))
  in
  Alcotest.(check string) "domain journal resumed on workers" (fp whole)
    (fp on_workers);
  Alcotest.(check string) "confirmed, domain journal on workers" (cfp whole)
    (cfp on_workers)

(* A schema-5 journal written by an earlier build: figure1 --domains 1
   --trials 40 --chaos --chaos-seed 3 --detector-budget 100000
   --no-degrade, stopped after 20 executed trials (17 finished, 2 crashed,
   1 exhausted).  The fingerprints are the uninterrupted run's. *)
let test_resume_journal_from_earlier_build () =
  let w = Option.get (W.Registry.find "figure1") in
  let r =
    Campaign.run
      {
        Campaign.default_config with
        domains = 2;
        seeds_per_pair = seeds 40;
        chaos = Some (Chaos.default 3);
        detector_budget = Some 100000;
        no_degrade = true;
        static = w.W.Workload.static;
        target = "figure1";
        resume = Some "resume_figure1_chaos3.jsonl";
      }
      w.W.Workload.program
  in
  Alcotest.(check int) "every journaled trial replayed" 20
    r.Campaign.stats.Campaign.s_replayed;
  Alcotest.(check string) "fingerprint" "8d0120a12da5529ddf9fe8796597e407" (fp r);
  Alcotest.(check string) "confirmed" "0ce352f06a98ed98a5fad9f59a484e35" (cfp r)

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)

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

let test_corpus_dedup_and_seen () =
  let dir = tmpdir "rf-corpus" in
  let e = Corpus.entry ~kind:"error" ~key:"deadbeef" ~target:"figure1" () in
  let s1 = Corpus.update ~dir [ e ] in
  Alcotest.(check int) "first update adds" 1 s1.Corpus.cs_added;
  let s2 = Corpus.update ~dir [ e ] in
  Alcotest.(check int) "second update dedups" 0 s2.Corpus.cs_added;
  Alcotest.(check int) "dedup counted" 1 s2.Corpus.cs_deduped;
  (match Corpus.load dir with
  | [ got ] ->
      Alcotest.(check string) "key kept" "deadbeef" got.Corpus.e_key;
      Alcotest.(check int) "seen bumped" 2 got.Corpus.e_seen
  | l -> Alcotest.failf "expected exactly one entry, got %d" (List.length l));
  match Corpus.verify ~dir with
  | Ok n -> Alcotest.(check int) "verify count" 1 n
  | Error problems ->
      Alcotest.failf "verify failed: %s" (String.concat "; " problems)

let test_corpus_verify_catches_tampering () =
  let dir = tmpdir "rf-corpus-tamper" in
  let src = Filename.temp_file "rf-artifact" ".json" in
  let oc = open_out src in
  output_string oc "{\"sched\":[1,2,3]}\n";
  close_out oc;
  let e =
    Corpus.ingest_file ~dir ~kind:"error" ~key:"cafe" ~target:"figure1" ~src ()
  in
  ignore (Corpus.update ~dir [ e ]);
  Sys.remove src;
  (match Corpus.verify ~dir with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 entry, verify saw %d" n
  | Error p -> Alcotest.failf "fresh corpus must verify: %s" (String.concat "; " p));
  (* tamper with the artifact bytes: strict verify must object, the
     tolerant load must still return the entry *)
  let artifact = Filename.concat dir e.Corpus.e_file in
  let oc = open_out_gen [ Open_append ] 0o644 artifact in
  output_string oc "garbage";
  close_out oc;
  (match Corpus.verify ~dir with
  | Ok _ -> Alcotest.fail "verify accepted a tampered artifact"
  | Error problems ->
      Alcotest.(check bool) "problem names the artifact" true
        (List.exists (contains ~needle:e.Corpus.e_file) problems));
  Alcotest.(check int) "tolerant load still works" 1
    (List.length (Corpus.load dir))

(* SIGKILL during an index rewrite: the child appends entries in a hot
   loop (each [update] is an Atomic_file tmp-write + rename); the parent
   kills it at an arbitrary moment.  Whatever instant the kill lands —
   mid-tmp-write or between renames — the index must remain a complete,
   strictly verifiable previous version. *)
let corpus_kill_child dir =
  let n = ref 0 in
  while true do
    incr n;
    ignore
      (Corpus.update ~dir
         [ Corpus.entry ~kind:"degraded" ~key:(Printf.sprintf "k%06d" !n) () ])
  done

let test_corpus_survives_sigkill_mid_write () =
  let dir = tmpdir "rf-corpus-kill" in
  ignore (Corpus.update ~dir [ Corpus.entry ~kind:"error" ~key:"seed" () ]);
  let env =
    Array.append (Unix.environment ()) [| "RF_CORPUS_KILL=" ^ dir |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  (* let the child do real index rewrites, then kill it cold *)
  let deadline = Unix.gettimeofday () +. 10. in
  let grown () = List.length (Corpus.load dir) > 1 in
  while (not (grown ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Alcotest.(check bool) "child made progress before the kill" true (grown ());
  let entries = Corpus.load dir in
  Alcotest.(check bool) "seed entry survived" true
    (List.exists (fun e -> e.Corpus.e_key = "seed") entries);
  match Corpus.verify ~dir with
  | Ok n ->
      Alcotest.(check int) "verify agrees with load" (List.length entries) n
  | Error problems ->
      Alcotest.failf "index corrupt after SIGKILL: %s"
        (String.concat "; " problems)

let test_campaign_corpus_dedups_across_runs () =
  let dir = tmpdir "rf-corpus-campaign" in
  let r1 = run_fig1 ~corpus:dir () in
  let n1 = List.length (Corpus.load dir) in
  Alcotest.(check bool) "first campaign populated the corpus" true (n1 > 0);
  let r2 = run_fig1 ~corpus:dir () in
  Alcotest.(check string) "identical campaigns" (fp r1) (fp r2);
  let entries = Corpus.load dir in
  Alcotest.(check int) "second campaign added nothing" n1
    (List.length entries);
  Alcotest.(check bool) "every entry re-observed" true
    (List.for_all (fun e -> e.Corpus.e_seen = 2) entries);
  match Corpus.verify ~dir with
  | Ok _ -> ()
  | Error p -> Alcotest.failf "verify failed: %s" (String.concat "; " p)

(* ------------------------------------------------------------------ *)

let () =
  (match Sys.getenv_opt "RF_CORPUS_KILL" with
  | Some dir -> corpus_kill_child dir
  | None -> ());
  Alcotest.run "procpool"
    [
      ( "frame",
        [
          Alcotest.test_case "streaming roundtrip" `Quick
            test_frame_roundtrip_streaming;
          Alcotest.test_case "prefix is not an error" `Quick
            test_frame_prefix_is_not_an_error;
          Alcotest.test_case "bit-flip raises Corrupt" `Quick
            test_frame_bitflip_is_corrupt;
          Alcotest.test_case "bad length raises Corrupt" `Quick
            test_frame_bad_length_is_corrupt;
        ] );
      ( "workers",
        [
          Alcotest.test_case "assignment round-trips" `Quick
            test_worker_runs_an_assignment;
          Alcotest.test_case "SIGKILL requeues in-flight" `Quick
            test_sigkilled_worker_requeues_in_flight;
          Alcotest.test_case "torn result frame detected" `Quick
            test_torn_result_frame_kills_the_worker;
          Alcotest.test_case "shutdown waits on pipes" `Quick test_shutdown_does_not_sleep;
          Alcotest.test_case "round trips allocate no major block" `Quick
            test_round_trips_allocate_no_major_block;
        ] );
      ( "parity",
        [
          Alcotest.test_case "proc tier fingerprint parity" `Quick
            test_proc_campaign_fingerprint_parity;
          Alcotest.test_case "parity under worker SIGKILL" `Quick
            test_proc_campaign_survives_worker_sigkill;
        ] );
      ( "resume",
        [
          Alcotest.test_case "across tiers" `Quick test_resume_across_tiers;
          Alcotest.test_case "journal from an earlier build" `Quick
            test_resume_journal_from_earlier_build;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "dedup bumps seen" `Quick test_corpus_dedup_and_seen;
          Alcotest.test_case "verify catches tampering" `Quick
            test_corpus_verify_catches_tampering;
          Alcotest.test_case "SIGKILL mid-write leaves loadable index" `Quick
            test_corpus_survives_sigkill_mid_write;
          Alcotest.test_case "campaign corpus dedups across runs" `Quick
            test_campaign_corpus_dedups_across_runs;
        ] );
    ]
