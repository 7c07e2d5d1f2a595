(* Benchmark & experiment harness.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table1       -- Table 1 rows only
     dune exec bench/main.exe -- table1-quick -- Table 1 with reduced trials
     dune exec bench/main.exe -- figure1      -- Figure 1 walkthrough
     dune exec bench/main.exe -- figure2      -- Figure 2 probability series
     dune exec bench/main.exe -- micro        -- bechamel micro-benchmarks
     dune exec bench/main.exe -- ablation     -- design-choice ablations
     dune exec bench/main.exe -- parallel [TRIALS] [DOMAINS]
                                              -- sequential vs N-domain campaign speedup

   The micro benchmarks measure the per-mode execution cost (normal /
   hybrid-detection / RaceFuzzer) on representative workloads — the
   Table 1 runtime-ratio claim — plus detector and scheduler primitives. *)

open Bechamel
open Toolkit
module W = Rf_workloads

let run_engine ?(policy = Rf_runtime.Engine.Every_op) ?(listeners = []) ~seed program
    =
  ignore
    (Rf_runtime.Engine.run
       ~config:{ Rf_runtime.Engine.default_config with seed; policy }
       ~listeners ~strategy:(Rf_runtime.Strategy.random ()) program)

(* ------------------------------------------------------------------ *)
(* Bechamel micro benchmarks: one Test.make per Table-1 runtime mode    *)

let bench_mode name (w : W.Workload.t) mode =
  Test.make ~name:(Printf.sprintf "%s/%s" w.W.Workload.name name)
    (Staged.stage (fun () ->
         match mode with
         | `Normal ->
             run_engine ~policy:(Rf_runtime.Engine.Sync_and Rf_util.Site.Set.empty)
               ~seed:1 w.W.Workload.program
         | `Hybrid ->
             let d = Rf_detect.Detector.hybrid () in
             run_engine ~policy:Rf_runtime.Engine.Every_op
               ~listeners:[ Rf_detect.Detector.feed d ]
               ~seed:1 w.W.Workload.program
         | `Racefuzzer pair ->
             let report = Racefuzzer.Algo.fresh_report () in
             let strategy = Racefuzzer.Algo.strategy ~pair ~report () in
             let watch =
               Rf_util.Site.Set.add
                 (Rf_util.Site.Pair.fst pair)
                 (Rf_util.Site.Set.singleton (Rf_util.Site.Pair.snd pair))
             in
             ignore
               (Rf_runtime.Engine.run
                  ~config:
                    {
                      Rf_runtime.Engine.default_config with
                      seed = 1;
                      policy = Rf_runtime.Engine.Sync_and watch;
                    }
                  ~strategy w.W.Workload.program)))

let micro_tests () =
  [
    (* Table 1 runtime columns on the compute-heavy and an I/O-ish program *)
    bench_mode "normal" W.Moldyn.workload `Normal;
    bench_mode "hybrid" W.Moldyn.workload `Hybrid;
    bench_mode "racefuzzer" W.Moldyn.workload
      (`Racefuzzer (Rf_util.Site.Pair.make W.Moldyn.site_steps_r W.Moldyn.site_steps_w));
    bench_mode "normal" W.Weblech.workload `Normal;
    bench_mode "hybrid" W.Weblech.workload `Hybrid;
    bench_mode "racefuzzer" W.Weblech.workload (`Racefuzzer W.Weblech.harmful_pair);
    (* detector cost comparison on the same access-heavy trace *)
    Test.make ~name:"detect/hb-precise"
      (Staged.stage (fun () ->
           let d = Rf_detect.Detector.hb_precise ~cap:1024 () in
           run_engine ~listeners:[ Rf_detect.Detector.feed d ] ~seed:1
             W.Moldyn.workload.W.Workload.program));
    Test.make ~name:"detect/eraser"
      (Staged.stage (fun () ->
           let d = Rf_detect.Detector.eraser () in
           run_engine ~listeners:[ Rf_detect.Detector.feed d ] ~seed:1
             W.Moldyn.workload.W.Workload.program));
    Test.make ~name:"detect/hybrid"
      (Staged.stage (fun () ->
           let d = Rf_detect.Detector.hybrid () in
           run_engine ~listeners:[ Rf_detect.Detector.feed d ] ~seed:1
             W.Moldyn.workload.W.Workload.program));
    (* primitive costs: the history scan's happens-before test is one
       epoch query against an 8-thread clock *)
    Test.make ~name:"prim/hb-before"
      (Staged.stage
         (let hb = Rf_detect.Hbclock.create ~lock_edges:false () in
          List.iter
            (fun tid ->
              ignore
                (Rf_detect.Hbclock.feed hb
                   (Rf_events.Event.Start { tid; name = "t" })))
            (List.init 8 Fun.id);
          fun () -> ignore (Rf_detect.Hbclock.hb_before hb ~tid:3 ~clock:1 ~now_tid:5)));
    Test.make ~name:"prim/prng-int"
      (Staged.stage
         (let p = Rf_util.Prng.create 7 in
          fun () -> ignore (Rf_util.Prng.int p 1000)));
    Test.make ~name:"prim/figure1-run"
      (Staged.stage (fun () -> run_engine ~seed:3 W.Figure1.program));
  ]

let run_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"rf" ~fmt:"%s/%s" (micro_tests ()))
  in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) i raw) instances
  in
  let results2 = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instances results in
  Hashtbl.iter
    (fun measure tbl ->
      Fmt.pr "## %s@." measure;
      Hashtbl.iter
        (fun name (res : Analyze.OLS.t) ->
          match Analyze.OLS.estimates res with
          | Some [ est ] -> Fmt.pr "  %-28s %12.2f ns/run@." name est
          | _ -> Fmt.pr "  %-28s (no estimate)@." name)
        tbl)
    results2

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let run_ablation () =
  let seeds = List.init 100 Fun.id in
  Fmt.pr "=== Ablation: postpone timeout (figure2, k=100) ===@.";
  Fmt.pr "%-12s %8s %8s@." "timeout" "P(race)" "P(error)";
  List.iter
    (fun timeout ->
      let pair = W.Figure2.race_pair in
      let trial seed =
        match
          Racefuzzer.Fuzzer.run_trial
            ~postpone_timeout:(match timeout with 0 -> None | t -> Some t)
            ~max_steps:Rf_runtime.Engine.default_config.max_steps
            ~program:(fun () -> W.Figure2.program ~k:100 ())
            pair seed
        with
        | Racefuzzer.Fuzzer.Completed t -> t
        | _ -> failwith "postpone-timeout ablation: a trial did not complete"
      in
      let r =
        Racefuzzer.Fuzzer.aggregate_trials ~pair ~wall:0.0 (List.map trial seeds)
      in
      let n = List.length r.Racefuzzer.Fuzzer.trials in
      Fmt.pr "%-12s %8.2f %8.2f@."
        (if timeout = 0 then "none" else string_of_int timeout)
        r.Racefuzzer.Fuzzer.probability
        (float_of_int r.Racefuzzer.Fuzzer.error_trials /. float_of_int n))
    [ 0; 5; 50; 2000 ];
  Fmt.pr "@.=== Ablation: race resolution (always vs random), figure1 ===@.";
  (* resolution ablation is approximated by measuring the ERROR1 rate:
     random resolution gives ~0.5; a scheduler without the coin flip would
     sit at 0 or 1. We measure the achieved split as evidence. *)
  let r =
    Racefuzzer.Fuzzer.fuzz_pair ~seeds ~program:W.Figure1.program W.Figure1.real_pair
  in
  let n = List.length r.Racefuzzer.Fuzzer.trials in
  Fmt.pr "random resolution: ERROR1 in %d/%d trials (expected ~%d)@."
    r.Racefuzzer.Fuzzer.error_trials n (n / 2);
  Fmt.pr "@.=== Ablation: switch policy steps (moldyn) ===@.";
  let steps policy =
    let o =
      Rf_runtime.Engine.run
        ~config:{ Rf_runtime.Engine.default_config with seed = 2; policy }
        ~strategy:(Rf_runtime.Strategy.random ()) W.Moldyn.workload.W.Workload.program
    in
    (o.Rf_runtime.Outcome.steps, o.Rf_runtime.Outcome.switches)
  in
  let s1, w1 = steps Rf_runtime.Engine.Every_op in
  let s2, w2 = steps (Rf_runtime.Engine.Sync_and Rf_util.Site.Set.empty) in
  Fmt.pr "every-op:  %d steps, %d strategy consultations@." s1 w1;
  Fmt.pr "sync-only: %d steps, %d strategy consultations@." s2 w2

(* ------------------------------------------------------------------ *)
(* Parallel campaign: sequential vs N-domain speedup (Table 1 rows)    *)

let run_parallel ?(trials = 50) ?(domains = 4) () =
  Fmt.pr "=== Parallel campaign: 1 domain vs %d domains (%d trials/pair) ===@." domains
    trials;
  Fmt.pr "(host reports %d recommended domain(s); speedup needs real cores)@.@."
    (Domain.recommended_domain_count ());
  Fmt.pr "%-14s %6s %7s %10s %10s %8s  %s@." "workload" "pairs" "trials" "seq(s)"
    "par(s)" "speedup" "identical";
  let seeds = List.init trials Fun.id in
  let phase1_seeds = List.init 3 Fun.id in
  let seq_total = ref 0.0 and par_total = ref 0.0 and all_equal = ref true in
  List.iter
    (fun (w : W.Workload.t) ->
      let campaign d =
        Rf_campaign.Campaign.run
          {
            Rf_campaign.Campaign.default_config with
            domains = d;
            phase1_seeds;
            seeds_per_pair = seeds;
            cutoff = false;
          }
          w.W.Workload.program
      in
      let seq = campaign 1 in
      let par = campaign domains in
      (* whole campaigns: with several domains phase 1 overlaps phase 2 *)
      let s = seq.Rf_campaign.Campaign.stats.Rf_campaign.Campaign.s_campaign_wall in
      let p = par.Rf_campaign.Campaign.stats.Rf_campaign.Campaign.s_campaign_wall in
      let same =
        Rf_campaign.Campaign.equal_verdicts seq.Rf_campaign.Campaign.analysis
          par.Rf_campaign.Campaign.analysis
      in
      if not same then all_equal := false;
      seq_total := !seq_total +. s;
      par_total := !par_total +. p;
      Fmt.pr "%-14s %6d %7d %10.3f %10.3f %7.2fx  %s@." w.W.Workload.name
        seq.Rf_campaign.Campaign.stats.Rf_campaign.Campaign.s_pairs
        seq.Rf_campaign.Campaign.stats.Rf_campaign.Campaign.s_trials s p
        (if p > 0.0 then s /. p else 0.0)
        (if same then "yes" else "MISMATCH"))
    W.Registry.all;
  Fmt.pr "%-14s %6s %7s %10.3f %10.3f %7.2fx  %s@." "TOTAL" "" "" !seq_total !par_total
    (if !par_total > 0.0 then !seq_total /. !par_total else 0.0)
    (if !all_equal then "yes" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* Experiment drivers                                                  *)

let run_table1 ~quick () =
  let config =
    if quick then Rf_report.Table1.quick_config else Rf_report.Table1.default_config
  in
  Fmt.pr "=== Table 1 (paper: Sen, PLDI 2008) ===@.";
  let t0 = Unix.gettimeofday () in
  let rows = Rf_report.Table1.generate ~config () in
  Rf_report.Table1.render Fmt.stdout rows;
  Fmt.pr "@.(generated in %.1fs)@." (Unix.gettimeofday () -. t0)

let run_figure1 () =
  Fmt.pr "=== Figure 1 experiment ===@.";
  Rf_report.Figure1_exp.render Fmt.stdout (Rf_report.Figure1_exp.generate ())

let run_figure2 () =
  Fmt.pr "=== Figure 2 experiment: P(race)/P(error) vs padding k ===@.";
  Rf_report.Figure2_exp.render Fmt.stdout (Rf_report.Figure2_exp.generate ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      run_table1 ~quick:false ();
      Fmt.pr "@.";
      run_figure1 ();
      Fmt.pr "@.";
      run_figure2 ();
      Fmt.pr "@.";
      run_ablation ();
      Fmt.pr "@.";
      run_micro ()
  | [ "table1" ] -> run_table1 ~quick:false ()
  | [ "table1-quick" ] -> run_table1 ~quick:true ()
  | [ "figure1" ] -> run_figure1 ()
  | [ "figure2" ] -> run_figure2 ()
  | [ "micro" ] -> run_micro ()
  | [ "ablation" ] -> run_ablation ()
  | "parallel" :: rest -> (
      match List.map int_of_string_opt rest with
      | [] -> run_parallel ()
      | [ Some trials ] -> run_parallel ~trials ()
      | [ Some trials; Some domains ] -> run_parallel ~trials ~domains ()
      | _ ->
          Fmt.epr "usage: main.exe parallel [TRIALS] [DOMAINS]@.";
          exit 2)
  | _ ->
      Fmt.epr
        "usage: main.exe [table1|table1-quick|figure1|figure2|micro|ablation|parallel]@.";
      exit 2
