(* Determinism properties of the campaign orchestrator (Rf_campaign):

   1. Campaign.run ~domains:1 ≡ Campaign.run ~domains:4 ≡ sequential
      Fuzzer.analyze on the same seed lists — same real_pairs /
      error_pairs / per-pair trial outcomes (QCheck over seeds, trial
      counts and workloads).
   2. With early cutoff enabled, results are still bit-identical across
      domain counts (the cutoff point is logical, not temporal).
   3. Cutoff actually saves work, and budget freed by resolved pairs is
      reallocated to unresolved ones.
   4. Phase-1 detection by re-execution ([--offline-detect]) is
      shard-count invariant: one shard is inline detection, and more
      shards, run in parallel or one after another, merge to inline's
      pair set and stats.
   5. Campaign.run and Campaign.fuzz_pairs read one configuration the
      same way. *)

open Rf_util
module Fuzzer = Racefuzzer.Fuzzer
module Campaign = Rf_campaign.Campaign
module Event_log = Rf_campaign.Event_log
module Chaos = Rf_campaign.Chaos
module W = Rf_workloads

let fp = Campaign.fingerprint

(* A campaign on [domains] over the two seed lists, everything else at
   its default. *)
let config ~domains ~cutoff ~phase1_seeds ~seeds_per_pair =
  { Campaign.default_config with domains; cutoff; phase1_seeds; seeds_per_pair }

(* A pool of cheap workloads with interesting race topology: figure1 has
   one real+harmful pair and one false alarm; figure2 has one real pair
   whose error shows up in ~half the trials. *)
let workload_pool : (string * Fuzzer.program) list =
  [
    ("figure1", W.Figure1.program);
    ("figure2-k5", fun () -> W.Figure2.program ~k:5 ());
    ("figure2-k25", fun () -> W.Figure2.program ~k:25 ());
  ]

let gen_case =
  QCheck.Gen.(
    let* wi = int_bound (List.length workload_pool - 1) in
    let* trials = map (fun n -> 3 + (n mod 15)) nat in
    let* seed0 = int_bound 1000 in
    let* p1 = map (fun n -> 1 + (n mod 3)) nat in
    return (wi, trials, seed0, p1))

let arb_case =
  QCheck.make
    ~print:(fun (wi, trials, seed0, p1) ->
      Printf.sprintf "workload=%s trials=%d seed0=%d p1=%d"
        (fst (List.nth workload_pool wi))
        trials seed0 p1)
    gen_case

(* 1. No cutoff: campaign at any domain count ≡ sequential analyze. *)
let prop_campaign_equals_analyze =
  QCheck.Test.make ~name:"campaign(d=1) = campaign(d=4) = Fuzzer.analyze" ~count:12
    arb_case (fun (wi, trials, seed0, p1) ->
      let _, program = List.nth workload_pool wi in
      let phase1_seeds = List.init p1 Fun.id in
      let seeds_per_pair = List.init trials (fun i -> seed0 + i) in
      let a = Fuzzer.analyze ~phase1_seeds ~seeds_per_pair program in
      let run domains =
        Campaign.run (config ~domains ~cutoff:false ~phase1_seeds ~seeds_per_pair) program
      in
      let c1 = run 1 and c4 = run 4 in
      fp a = fp c1.Campaign.analysis && fp a = fp c4.Campaign.analysis)

(* 2. Cutoff mode is still domain-count invariant. *)
let prop_cutoff_domain_invariant =
  QCheck.Test.make ~name:"cutoff campaign: d=1 = d=2 = d=4" ~count:12 arb_case
    (fun (wi, trials, seed0, p1) ->
      let _, program = List.nth workload_pool wi in
      let phase1_seeds = List.init p1 Fun.id in
      let seeds_per_pair = List.init trials (fun i -> seed0 + i) in
      let run d =
        Campaign.run (config ~domains:d ~cutoff:true ~phase1_seeds ~seeds_per_pair) program
      in
      let c1 = run 1 and c2 = run 2 and c4 = run 4 in
      fp c1.Campaign.analysis = fp c2.Campaign.analysis
      && fp c1.Campaign.analysis = fp c4.Campaign.analysis)

(* ------------------------------------------------------------------ *)
(* Deterministic unit checks on figure1                                *)

let seeds n = List.init n Fun.id

let test_equals_analyze_exact () =
  let phase1_seeds = seeds 10 and seeds_per_pair = seeds 40 in
  let a = Fuzzer.analyze ~phase1_seeds ~seeds_per_pair W.Figure1.program in
  let c =
    Campaign.run (config ~domains:4 ~cutoff:false ~phase1_seeds ~seeds_per_pair)
      W.Figure1.program
  in
  Alcotest.(check string) "fingerprints equal" (fp a) (fp c.Campaign.analysis);
  Alcotest.(check bool) "equal_verdicts agrees" true
    (Campaign.equal_verdicts a c.Campaign.analysis)

let test_cutoff_cancels_and_truncates () =
  let c =
    Campaign.run
      (config ~domains:1 ~cutoff:true ~phase1_seeds:(seeds 10) ~seeds_per_pair:(seeds 40))
      W.Figure1.program
  in
  let s = c.Campaign.stats in
  Alcotest.(check bool) "some trials cancelled" true (s.Campaign.s_cancelled > 0);
  Alcotest.(check bool) "one pair resolved" true (s.Campaign.s_resolved = 1);
  let real =
    List.find
      (fun (r : Fuzzer.pair_result) -> Site.Pair.equal r.Fuzzer.pr_pair W.Figure1.real_pair)
      c.Campaign.analysis.Fuzzer.results
  in
  (* the real pair's list stops at its resolution point: its last trial is
     the first error trial, everything after is cancelled or discarded *)
  Alcotest.(check bool) "real pair truncated" true
    (List.length real.Fuzzer.trials < 40);
  Alcotest.(check bool) "still classified harmful" true (Fuzzer.is_harmful real)

let test_budget_reallocation () =
  (* figure1: the real pair resolves almost immediately; with cutoff on,
     its unused budget must flow to the unresolved false-alarm pair. *)
  let log = Event_log.memory () in
  let c =
    Campaign.run ~log
      {
        (config ~domains:1 ~cutoff:true ~phase1_seeds:(seeds 10) ~seeds_per_pair:(seeds 20))
        with
        budget = Some 40;
      }
      W.Figure1.program
  in
  let false_r =
    List.find
      (fun (r : Fuzzer.pair_result) ->
        Site.Pair.equal r.Fuzzer.pr_pair W.Figure1.false_pair)
      c.Campaign.analysis.Fuzzer.results
  in
  Alcotest.(check bool)
    (Printf.sprintf "false pair granted extra trials (got %d > 20)"
       (List.length false_r.Fuzzer.trials))
    true
    (List.length false_r.Fuzzer.trials > 20);
  Alcotest.(check bool) "still a false alarm" false (Fuzzer.is_real false_r);
  let evs = Event_log.events log in
  let has p = List.exists p evs in
  Alcotest.(check bool) "budget_granted event emitted" true
    (has (function Event_log.Budget_granted _ -> true | _ -> false));
  Alcotest.(check bool) "pair_resolved event emitted" true
    (has (function Event_log.Pair_resolved _ -> true | _ -> false));
  Alcotest.(check bool) "trials_cancelled event emitted" true
    (has (function Event_log.Trials_cancelled _ -> true | _ -> false))

let test_late_trial_lowers_cut () =
  (* figure1's real pair races and fails on seeds 0, 1 and 2.  A chaos
     stall on seed 0 (and not on seed 1) lets the second domain resolve
     the pair at cut 1 first; the stalled seed 0 then finishes and
     lowers the cut to 0.  The journal must end on the final cut. *)
  let label = Site.Pair.to_string W.Figure1.real_pair in
  let stalls plan seed = Chaos.stalls plan ~label ~seed in
  let chaos =
    List.init 64 (fun seed -> Chaos.plan ~stall_rate:0.5 ~stall_seconds:0.3 seed)
    |> List.find (fun plan -> stalls plan 0 && not (stalls plan 1))
  in
  let log = Event_log.memory () in
  let results, _ =
    Campaign.fuzz_pairs ~log
      {
        Campaign.default_config with
        domains = 2;
        seeds_per_pair = seeds 10;
        chaos = Some chaos;
      }
      ~program:W.Figure1.program [ W.Figure1.real_pair ]
  in
  let cuts =
    List.filter_map
      (function
        | Event_log.Pair_resolved { pair; at_trial } when pair = label ->
            Some at_trial
        | _ -> None)
      (Event_log.events log)
  in
  Alcotest.(check (option int)) "last journaled cut" (Some 0)
    (List.nth_opt (List.rev cuts) 0);
  match results with
  | [ r ] ->
      Alcotest.(check int) "aggregated prefix [0..0]" 1
        (List.length r.Fuzzer.trials)
  | _ -> Alcotest.fail "one pair in, one result out"

let test_late_crash_lowers_quarantine () =
  (* A pair is quarantined at its Nth-smallest crash index.  A chaos plan
     whose lowest crash index also stalls (and nothing else up to the
     (N+1)th crash does) lets the second domain reach N crashes at higher
     indices first; the stalled crash then finishes and lowers the bound
     to the Nth crash.  The journal must end on the final bound. *)
  let label = Site.Pair.to_string W.Figure1.real_pair in
  let qn = Rf_campaign.Supervisor.default_policy.quarantine_crashes in
  let trials = 12 in
  let crash_idxs plan =
    List.filter (fun seed -> Chaos.crashes plan ~label ~seed) (seeds trials)
  in
  let stalls plan seed = Chaos.stalls plan ~label ~seed in
  let chaos =
    List.init 512 (fun seed ->
        Chaos.plan ~crash_rate:0.5 ~stall_rate:0.5 ~stall_seconds:0.3 seed)
    |> List.find (fun plan ->
           match crash_idxs plan with
           | c0 :: rest when List.length rest >= qn ->
               let last = List.nth rest (qn - 1) in
               stalls plan c0
               && List.for_all
                    (fun i -> i = c0 || not (stalls plan i))
                    (seeds (last + 1))
           | _ -> false)
  in
  let log = Event_log.memory () in
  let _ =
    Campaign.fuzz_pairs ~log
      {
        Campaign.default_config with
        domains = 2;
        seeds_per_pair = seeds trials;
        cutoff = false;
        chaos = Some chaos;
      }
      ~program:W.Figure1.program [ W.Figure1.real_pair ]
  in
  let bounds =
    List.filter_map
      (function
        | Event_log.Pair_quarantined { pair; at_trial; _ } when pair = label ->
            Some at_trial
        | _ -> None)
      (Event_log.events log)
  in
  Alcotest.(check (option int)) "last journaled bound"
    (List.nth_opt (crash_idxs chaos) (qn - 1))
    (List.nth_opt (List.rev bounds) 0)

let test_event_log_jsonl_shape () =
  (* every event renders as one JSON object per line with seq/t/ev keys *)
  let path = Filename.temp_file "campaign" ".jsonl" in
  let log = Event_log.open_file path in
  let _ =
    Campaign.run ~log
      (config ~domains:2 ~cutoff:true ~phase1_seeds:(seeds 5) ~seeds_per_pair:(seeds 10))
      W.Figure1.program
  in
  Event_log.close log;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Sys.remove path;
  Alcotest.(check bool) "log non-empty" true (List.length lines > 4);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "line is a JSON object: %s" l)
        true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      Alcotest.(check bool) "has seq/t/ev fields" true
        (String.length l > 10 && String.sub l 1 6 = "\"seq\":"))
    lines;
  (* The journal opens with a schema header.  Phase 1 streams its pairs
     into phase 2, so trial lines may come before phase1_finished; what
     holds is that phase1_finished appears exactly once, before
     campaign_finished, and campaign_started precedes every trial line. *)
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let ev name = Printf.sprintf "\"ev\":\"%s\"" name in
  let indices name =
    List.concat (List.mapi (fun i l -> if contains l (ev name) then [ i ] else []) lines)
  in
  Alcotest.(check bool) "journal_opened header first" true
    (contains (List.hd lines) (ev "journal_opened"));
  let first name = match indices name with i :: _ -> i | [] -> max_int in
  Alcotest.(check int) "exactly one phase1_finished" 1
    (List.length (indices "phase1_finished"));
  Alcotest.(check bool) "phase1_finished before campaign_finished" true
    (first "phase1_finished" < first "campaign_finished"
    && first "campaign_finished" < max_int);
  let trial_lines =
    List.concat_map indices [ "trial_started"; "trial_finished"; "trial_crashed"; "trial_exhausted" ]
  in
  Alcotest.(check bool) "campaign_started precedes every trial line" true
    (trial_lines <> []
    && List.for_all (fun i -> first "campaign_started" < i) trial_lines)

let test_stats_accounting () =
  let c =
    Campaign.run
      (config ~domains:2 ~cutoff:false ~phase1_seeds:(seeds 10) ~seeds_per_pair:(seeds 15))
      W.Figure1.program
  in
  let s = c.Campaign.stats in
  Alcotest.(check int) "pairs = potential" 2 s.Campaign.s_pairs;
  Alcotest.(check int) "all granted trials run (no cutoff)" (2 * 15) s.Campaign.s_trials;
  Alcotest.(check int) "nothing cancelled" 0 s.Campaign.s_cancelled;
  Alcotest.(check int) "nothing discarded" 0 s.Campaign.s_discarded;
  Alcotest.(check int) "per-domain trials sum to total" s.Campaign.s_trials
    (Array.fold_left ( + ) 0 s.Campaign.s_domain_trials)

(* [fuzz_pairs] over [run]'s pairs, in [run]'s fuzzing order (Likely-first
   under the static model), returns [run]'s pair results: the two entry
   points read the trial fields of one configuration the same way.  The
   configuration sets cutoff, a budget (which grants by pair order) and
   a non-default supervision policy. *)
let test_fuzz_pairs_matches_run () =
  let supervision =
    { Rf_campaign.Supervisor.default_policy with quarantine_crashes = 1; max_respawns = 1 }
  in
  let registered name =
    let w = Option.get (W.Registry.find name) in
    (name, w.W.Workload.program, w.W.Workload.static)
  in
  List.iter
    (fun (name, program, static) ->
      List.iter
        (fun domains ->
          let c =
            {
              Campaign.default_config with
              domains;
              phase1_seeds = seeds 2;
              seeds_per_pair = seeds 20;
              budget = Some 25;
              supervision;
              static;
            }
          in
          let a = (Campaign.run c program).Campaign.analysis in
          let results, _ =
            Campaign.fuzz_pairs c ~program
              (List.map (fun (p : Fuzzer.pair_result) -> p.Fuzzer.pr_pair) a.Fuzzer.results)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s on %d domain(s)" name domains)
            (fp a)
            (fp { a with Fuzzer.results }))
        [ 1; 2 ])
    [
      registered "figure1";
      ("figure2-k25", (fun () -> W.Figure2.program ~k:25 ()), None);
      registered "cache4j";
    ]

(* ------------------------------------------------------------------ *)
(* Detection by re-execution.  Shard k of n re-runs the phase-1 seeds and
   its detector sees every sync event plus the memory events of the
   locations it owns.  Rfl_gen programs carry no static model and intern
   their sites as they first execute, so the shard domains meet the
   Site.with_priority gate. *)

let phase1_of ?governor ~detect (prog, seed) =
  Fuzzer.phase1 ~seeds:[ seed ] ~max_steps:100_000 ?governor ~detect
    (Rf_lang.Lang.program ~print:ignore prog)

let pair_strings (p1 : Fuzzer.phase1_result) =
  List.map
    (fun (r : Rf_detect.Race.t) -> Site.Pair.to_string r.Rf_detect.Race.pair)
    p1.Fuzzer.potential

let prop_one_shard_is_inline =
  QCheck.Test.make ~name:"one shard = inline, byte for byte" ~count:50
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun case ->
      let inline = phase1_of ~detect:Fuzzer.Inline case in
      let one = phase1_of ~detect:(Fuzzer.Recorded { shards = 1 }) case in
      List.map Rf_detect.Race.to_string one.Fuzzer.potential
      = List.map Rf_detect.Race.to_string inline.Fuzzer.potential
      && one.Fuzzer.p1_stats = inline.Fuzzer.p1_stats)

let prop_sharded_pair_set =
  QCheck.Test.make ~name:"2/3/7 shards = inline pairs, stats" ~count:50
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun case ->
      let inline = phase1_of ~detect:Fuzzer.Inline case in
      let sorted_inline =
        List.map Site.Pair.to_string
          (Site.Pair.Set.elements (Fuzzer.potential_pairs inline))
      in
      List.for_all
        (fun shards ->
          let sharded = phase1_of ~detect:(Fuzzer.Recorded { shards }) case in
          Site.Pair.Set.equal (Fuzzer.potential_pairs sharded)
            (Fuzzer.potential_pairs inline)
          && sharded.Fuzzer.p1_stats = inline.Fuzzer.p1_stats
          && pair_strings sharded = sorted_inline)
        [ 2; 3; 7 ])

let prop_parallel_shards_equal_sequential =
  (* ungoverned shards run in parallel, shard 0 on the caller; a governor
     whose budget never trips runs them one after another *)
  QCheck.Test.make ~name:"parallel shards = sequential shards" ~count:20
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun case ->
      let run governor shards =
        let p1 = phase1_of ?governor ~detect:(Fuzzer.Recorded { shards }) case in
        (pair_strings p1, p1.Fuzzer.p1_stats, p1.Fuzzer.p1_degraded)
      in
      List.for_all
        (fun shards ->
          let governor =
            Rf_resource.Governor.create ~max_entries:max_int ~no_degrade:true ()
          in
          run None shards = run (Some governor) shards)
        [ 2; 3 ])

let () =
  Alcotest.run "campaign_determinism"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_campaign_equals_analyze; prop_cutoff_domain_invariant ] );
      ( "cutoff",
        [
          Alcotest.test_case "equals analyze exactly" `Quick test_equals_analyze_exact;
          Alcotest.test_case "cancels and truncates" `Quick
            test_cutoff_cancels_and_truncates;
          Alcotest.test_case "budget reallocation" `Quick test_budget_reallocation;
          Alcotest.test_case "late trial lowers journaled cut" `Quick
            test_late_trial_lowers_cut;
          Alcotest.test_case "late crash lowers journaled quarantine" `Quick
            test_late_crash_lowers_quarantine;
          Alcotest.test_case "fuzz_pairs reads run's config" `Quick
            test_fuzz_pairs_matches_run;
        ] );
      ( "observability",
        [
          Alcotest.test_case "jsonl shape" `Quick test_event_log_jsonl_shape;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        ] );
      ( "offline",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_one_shard_is_inline;
            prop_sharded_pair_set;
            prop_parallel_shards_equal_sequential;
          ] );
    ]
