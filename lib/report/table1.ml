(** Regeneration of the paper's Table 1.

    For every workload analogue the harness reports the paper's columns:

    1. program name,
    2. SLOC of the model,
    3. average runtime of a normal execution (no analysis),
    4. average runtime under hybrid race detection (phase 1),
    5. average runtime under RaceFuzzer (phase 2),
    6. number of potential racing statement pairs found by hybrid,
    7. number of real races confirmed by RaceFuzzer,
    8. number of real races known from prior case studies ('-' if none),
    9. number of racing pairs whose resolution threw an uncaught exception,
    10. number of exception-throwing trials under the simple random
        scheduler (the paper's default-scheduler column),
    11. empirical probability of creating a real race, estimated like the
        paper "we ran RaceFuzzer 100 times for each racing pair" and
        averaged over the confirmed-real pairs.

    Wall-clock columns are model-simulation times — the *ratios* between
    columns 3–5 are the reproducible signal (hybrid tracks every access;
    RaceFuzzer only synchronization plus one pair), not the absolute
    values. *)

open Rf_util
open Rf_runtime
open Racefuzzer
module W = Rf_workloads

type row = {
  r_name : string;
  r_sloc : int;
  r_time_normal : float;  (** seconds, mean; negative = not measured *)
  r_time_hybrid : float;
  r_time_rf : float;  (** mean wall time of one phase-2 execution *)
  r_potential : int;
  r_real : int;
  r_known : int option;
  r_exceptions_rf : int;  (** distinct pairs with an exception *)
  r_exceptions_simple : int;  (** distinct crash sites under simple random *)
  r_probability : float;  (** NaN when no real race *)
  r_steps_normal : float;
  r_steps_hybrid : float;
}

type config = {
  phase1_seeds : int list;
  seeds_per_pair : int list;
  baseline_seeds : int list;
  timing_seeds : int list;
}

let default_config =
  {
    phase1_seeds = List.init 5 Fun.id;
    seeds_per_pair = List.init 100 Fun.id;
    baseline_seeds = List.init 100 Fun.id;
    timing_seeds = List.init 5 Fun.id;
  }

(** A faster configuration for tests and quick demos. *)
let quick_config =
  {
    phase1_seeds = List.init 3 Fun.id;
    seeds_per_pair = List.init 25 Fun.id;
    baseline_seeds = List.init 25 Fun.id;
    timing_seeds = List.init 2 Fun.id;
  }

let time_runs ~seeds ~policy ~listeners_of program =
  let outs =
    List.map
      (fun seed ->
        Engine.run
          ~config:{ Engine.default_config with seed; policy }
          ~listeners:(listeners_of ()) ~strategy:(Strategy.random ()) program)
      seeds
  in
  ( Stats.mean (List.map (fun (o : Outcome.t) -> o.Outcome.wall_time) outs),
    Stats.mean_int (List.map (fun (o : Outcome.t) -> o.Outcome.steps) outs) )

let row_of_workload ?(config = default_config) (w : W.Workload.t) : row =
  let program = w.W.Workload.program in
  (* timing: normal execution — sync-only switching, no listeners *)
  let t_normal, steps_normal =
    time_runs ~seeds:config.timing_seeds
      ~policy:(Engine.Sync_and Site.Set.empty)
      ~listeners_of:(fun () -> [])
      program
  in
  (* timing: hybrid detection — every access observed *)
  let t_hybrid, steps_hybrid =
    time_runs ~seeds:config.timing_seeds ~policy:Engine.Every_op
      ~listeners_of:(fun () ->
        let d = Rf_detect.Detector.hybrid () in
        [ Rf_detect.Detector.feed d ])
      program
  in
  (* the actual two-phase analysis: every trial of every pair, on one
     domain *)
  let a =
    (Rf_campaign.Campaign.run
       {
         Rf_campaign.Campaign.default_config with
         domains = 1;
         phase1_seeds = config.phase1_seeds;
         seeds_per_pair = config.seeds_per_pair;
         cutoff = false;
       }
       program)
      .Rf_campaign.Campaign.analysis
  in
  let potential = Fuzzer.potential_pairs a.Fuzzer.a_phase1 in
  let real_results = List.filter Fuzzer.is_real a.Fuzzer.results in
  let t_rf =
    (* mean wall time of a single phase-2 execution across all pairs *)
    let per_run =
      List.concat_map
        (fun (r : Fuzzer.pair_result) ->
          [ r.Fuzzer.pr_wall /. float_of_int (max 1 (List.length r.Fuzzer.trials)) ])
        a.Fuzzer.results
    in
    Stats.mean per_run
  in
  let simple =
    Fuzzer.baseline ~seeds:config.baseline_seeds ~make_strategy:Strategy.random program
  in
  {
    r_name = w.W.Workload.name;
    r_sloc = w.W.Workload.sloc;
    r_time_normal = (if w.W.Workload.interactive then -1.0 else t_normal);
    r_time_hybrid = (if w.W.Workload.interactive then -1.0 else t_hybrid);
    r_time_rf = t_rf;
    r_potential = Site.Pair.Set.cardinal potential;
    r_real = Site.Pair.Set.cardinal a.Fuzzer.real_pairs;
    r_known = w.W.Workload.known_real_races;
    r_exceptions_rf = Site.Pair.Set.cardinal a.Fuzzer.error_pairs;
    r_exceptions_simple = Site.Set.cardinal simple.Fuzzer.b_exception_sites;
    r_probability =
      (if real_results = [] then Float.nan
       else Stats.mean (List.map (fun r -> r.Fuzzer.probability) real_results));
    r_steps_normal = steps_normal;
    r_steps_hybrid = steps_hybrid;
  }

let generate ?(config = default_config) ?(workloads = W.Registry.all) () =
  List.map (row_of_workload ~config) workloads

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let header =
  [
    "Program"; "SLOC"; "Normal(ms)"; "Hybrid(ms)"; "RF(ms)"; "Hybrid#"; "RF(real)";
    "known"; "Exc RF"; "Exc Simple"; "Prob";
  ]

let cells_of_row r =
  [
    r.r_name;
    string_of_int r.r_sloc;
    Fmt.str "%a" Stats.pp_time_ms r.r_time_normal;
    Fmt.str "%a" Stats.pp_time_ms r.r_time_hybrid;
    Fmt.str "%a" Stats.pp_time_ms r.r_time_rf;
    string_of_int r.r_potential;
    string_of_int r.r_real;
    (match r.r_known with Some k -> string_of_int k | None -> "-");
    string_of_int r.r_exceptions_rf;
    string_of_int r.r_exceptions_simple;
    Fmt.str "%a" Stats.pp_prob r.r_probability;
  ]

let render ppf rows =
  let table = header :: List.map cells_of_row rows in
  let ncols = List.length header in
  let widths =
    List.init ncols (fun c ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 table)
  in
  let line row =
    List.iteri
      (fun c cell ->
        let w = List.nth widths c in
        if c = 0 then Fmt.pf ppf "%-*s" w cell else Fmt.pf ppf "  %*s" w cell)
      row;
    Fmt.pf ppf "@."
  in
  line header;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter (fun r -> line (cells_of_row r)) rows
