(* Campaign benchmark: what a RaceFuzzer user waits for, end to end, and
   where that time goes, layer by layer.

   A run measures one workload.  Untraced (--trace 0), it runs the real
   CLI ('racefuzzer campaign TARGET ... --log J') as a child process in a
   closed loop with one client, campaign after campaign, for --seconds,
   and summarizes every end-to-end metric over the campaigns (see
   [stat]).  Phase splits, trial walls and verdict times come from the
   sealed journal; wall, CPU and peak RSS are measured from outside.  Traced
   (--trace 1), it runs one campaign the same way, then replays exactly
   the (pair, seed) list it journaled in-process, timing each layer's
   entry point (Traced).  Every campaign's verdicts are checked against
   known answers: the run is correct only if none is wrong.

   The last line of standard output is one JSON object:
     {"correct": B, "attempted": N, "failed": N, "metrics": {...}}

   Usage (from the repository root, after 'dune build'):
     campaign_bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
     campaign_bench.exe                   # every workload, untraced
     campaign_bench.exe --smoke           # tiny sizes, traced too (runtest)
     campaign_bench.exe --compare A.json B.json
   --out FILE appends each run's result, tagged with workload, seed and
   mode, to FILE; --compare reads two such files.  BENCHMARK.json holds
   the metric bounds. *)

module W = Workloads
module SS = Journal.SS

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* How a run summarizes its campaigns into one value.  The time metrics
   take the fast quartile (the lower quartile of a time, the upper one of
   a rate): on a shared machine a campaign that lands in a slow period
   of the host runs slower, never faster, so the fast quartile follows
   the program and the median follows the host.  Memory does not drift
   and takes the median, as does set-up time, reported as the median of
   the run's set-ups. *)
type stat = Median | Fast_quartile

(* End-to-end, as a user sees them: name, unit, higher-is-better. *)
let end_to_end =
  [
    ("campaign_s", "s", false, Fast_quartile);
    ("trials_per_s", "1/s", true, Fast_quartile);
    ("first_real_s", "s", false, Fast_quartile);
    ("first_harmful_s", "s", false, Fast_quartile);
    ("peak_rss_mb", "MB", false, Median);
    ("cpu_s", "s", false, Fast_quartile);
    ("setup_s", "s", false, Median);
  ]

let summarize stat ~higher xs =
  let q1, median, q3 = Measure.quartiles xs in
  match stat with
  | Median -> median
  (* with fewer than 4 campaigns a quartile extrapolates: keep it within
     what was measured *)
  | Fast_quartile ->
      if higher then Float.min q3 (List.fold_left Float.max neg_infinity xs)
      else Float.max q1 (List.fold_left Float.min infinity xs)

(* Per layer, from the traced run.  Unit "count" marks the deterministic
   counts that must match exactly between two runs of one seed. *)
let per_layer =
  [
    ("detect.inline_s", "s", false);
    ("detect.tax", "ratio", false);
    ("detect.entries", "count", false);
    ("detect.mem_events", "count", false);
    ("detect.pairs", "count", false);
    ("detect.peak_heap_mb", "MB", false);
    ("events.record_s", "s", false);
    ("events.events", "count", false);
    ("events.bytes", "count", false);
    ("events.record_tax", "ratio", false);
    ("detect.offline_s", "s", false);
    ("runtime.steps", "count", false);
    ("runtime.steps_per_s", "1/s", true);
    ("core.steps_per_s", "1/s", true);
    ("core.trial_p50_ms", "ms", false);
    ("core.trial_p90_ms", "ms", false);
    ("core.postponements", "count", false);
    ("core.hit_events", "count", false);
    ("core.timeout_releases", "count", false);
    ("core.evictions", "count", false);
    ("core.race_rate", "ratio", true);
    ("core.recall", "ratio", true);
    ("core.par2_speedup", "ratio", true);
    ("campaign.ipc_overhead_ms", "ms", false);
    ("campaign.worker_spawn_s", "s", false);
    ("campaign.journal_line_us", "us", false);
    ("campaign.phase1_s", "s", false);
    ("campaign.phase2_s", "s", false);
    ("campaign.cancelled", "trials", false);
    ("campaign.waves", "count", false);
    ("replay.shrink_s", "s", false);
    ("replay.oracle_runs", "count", false);
    ("replay.steps_ratio", "ratio", true);
    ("lang.load_s", "s", false);
    ("static.build_s", "s", false);
    ("static.classify_s", "s", false);
    ("static.impossible", "count", true);
    ("trace.coverage", "ratio", true);
  ]

let metric_list = List.map (fun (n, u, b, _) -> (n, u, b)) end_to_end @ per_layer

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) metric_list with
  | Some (_, u, _) -> u
  | None -> invalid_arg ("unknown metric " ^ name)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let tail path n =
  match Child.read_file path with
  | None -> ""
  | Some s ->
      let lines = String.split_on_char '\n' s in
      let k = List.length lines in
      String.concat "\n" (List.filteri (fun i _ -> i >= k - n) lines)

(* ------------------------------------------------------------------ *)
(* One campaign of a workload: one CLI process per target              *)

type campaign = {
  e2e : (string * float) list;
  attempted : int;
  failed : int;
  errors : int;  (** known-answer mismatches *)
  recall : float * float;  (** (confirmed, known) true races *)
  journals : (W.target * Journal.t) list;
}

let count_missing xs set = List.length (List.filter (fun x -> not (SS.mem x set)) xs)

(* Known-answer mismatches of one target's campaign, each explained on
   stderr. *)
let check_verdicts (t : W.target) (j : Journal.t) =
  let real = Journal.real j and harmful = Journal.harmful j in
  let report n what = if n > 0 then Printf.eprintf "VERDICT %s: %d %s\n%!" t.W.arg n what in
  let integrity = if j.Journal.bad_lines > 0 || j.Journal.t_finished = 0.0 then 1 else 0 in
  report integrity "unreadable journal (bad lines or no campaign_finished)";
  match t.W.expect with
  | W.Planted e ->
      let must = count_missing e.Gen.must_confirm real in
      let outside =
        SS.cardinal (SS.diff real (SS.of_list e.Gen.may_race))
      in
      let harm = count_missing e.Gen.harmful harmful in
      report must "must-confirm pair(s) not confirmed";
      report outside "confirmed pair(s) outside may_race";
      report harm "harmful pair(s) not confirmed harmful";
      let known = SS.of_list e.Gen.may_race in
      ( integrity + must + outside + harm,
        (float_of_int (SS.cardinal (SS.inter real known)), float_of_int (SS.cardinal known)) )
  | W.Suite { min_real; harmful = pair } ->
      let short = if SS.cardinal real < min_real then 1 else 0 in
      let harm = match pair with Some p when not (SS.mem p harmful) -> 1 | _ -> 0 in
      report short (Printf.sprintf "target(s) with fewer than %d confirmed-real pairs" min_real);
      report harm "documented harmful pair not confirmed harmful";
      ( integrity + short + harm,
        (float_of_int (min (SS.cardinal real) min_real), float_of_int min_real) )

let run_campaign ~cli ~dir ~(opts : W.opts) targets =
  let runs =
    List.mapi
      (fun i (t : W.target) ->
        let tdir = Filename.concat dir (Printf.sprintf "t%02d" i) in
        rm_rf tdir;
        mkdir_p tdir;
        let log = Filename.concat tdir "journal.jsonl" and out = Filename.concat tdir "out.txt" in
        let argv =
          Array.of_list
            ([ cli; "campaign"; t.W.arg; "--log"; log ]
            @ W.cli_args opts ~repro_dir:(Filename.concat tdir "repro"))
        in
        let st = Child.run ~argv ~out in
        (match st.Child.status with
        | Unix.WEXITED 0 -> ()
        | _ ->
            Printf.eprintf "campaign %s failed; last output:\n%s\n%!" t.W.arg (tail out 20);
            exit 1);
        (t, st, Journal.load log))
      targets
  in
  let sum f = Measure.sum (List.map f runs) in
  let opt_sum f = sum (fun r -> Option.value ~default:0.0 (f r)) in
  let isum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let checks = List.map (fun (t, _, j) -> check_verdicts t j) runs in
  let executed = isum (fun (_, _, j) -> j.Journal.executed) in
  let failed = isum (fun (_, _, j) -> j.Journal.crashed + j.Journal.exhausted) in
  {
    e2e =
      [
        ("campaign_s", sum (fun (_, s, _) -> s.Child.wall));
        ( "trials_per_s",
          Measure.ratio (float_of_int executed) (sum (fun (_, _, j) -> j.Journal.phase2_s)) );
        ("first_real_s", opt_sum (fun (_, _, j) -> j.Journal.first_real));
        ("first_harmful_s", opt_sum (fun (_, _, j) -> j.Journal.first_harmful));
        ( "peak_rss_mb",
          List.fold_left (fun acc (_, s, _) -> Float.max acc s.Child.peak_rss_mb) 0.0 runs );
        ("cpu_s", sum (fun (_, s, _) -> s.Child.cpu));
        ("setup_s", sum (fun (_, s, j) -> s.Child.wall -. j.Journal.t_last));
      ];
    attempted = executed + failed;
    failed;
    errors = List.fold_left (fun acc (e, _) -> acc + e) 0 checks;
    recall =
      List.fold_left (fun (a, b) (_, (x, y)) -> (a +. x, b +. y)) (0.0, 0.0) checks;
    journals = List.map (fun (t, _, j) -> (t, j)) runs;
  }

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  samples : (string * float list) list;  (** untraced: every campaign's values *)
}

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of n)) ]))
             r.metrics) );
    ]

type env = { cli : string; data : string; work : string; smoke : bool }

let setup env (wl : W.t) ~seed =
  let dir = Filename.concat env.work wl.W.name in
  rm_rf dir;
  mkdir_p dir;
  let targets = wl.W.targets ~data:env.data ~work:dir ~seed ~smoke:env.smoke in
  (dir, wl.W.opts ~smoke:env.smoke, targets)

(* Closed loop, one client: campaign after campaign until the next one
   would overrun [seconds] (at least [min_reps]), summarized by metric. *)
let untraced env wl ~seed ~seconds ~min_reps =
  let dir, opts, targets = setup env wl ~seed in
  let t0 = Measure.now () in
  let rec loop acc =
    let c = run_campaign ~cli:env.cli ~dir ~opts targets in
    let acc = c :: acc in
    let elapsed = Measure.now () -. t0 in
    let last = List.assoc "campaign_s" c.e2e in
    if List.length acc < min_reps || elapsed +. last <= seconds then loop acc else List.rev acc
  in
  let cs = loop [] in
  Printf.printf "%s: %d campaign(s), seed %d\n" wl.W.name (List.length cs) seed;
  Printf.printf "  %-18s %-5s %12s %12s %12s %12s\n" "metric" "unit" "value" "q1" "median" "q3";
  let samples =
    List.map (fun (name, _, _, _) -> (name, List.map (fun c -> List.assoc name c.e2e) cs)) end_to_end
  in
  let metrics =
    List.map2
      (fun (name, unit, higher, stat) (_, xs) ->
        let q1, m, q3 = Measure.quartiles xs in
        let v = summarize stat ~higher xs in
        Printf.printf "  %-18s %-5s %12.6f %12.6f %12.6f %12.6f\n" name unit v q1 m q3;
        (name, v))
      end_to_end samples
  in
  let errors = List.fold_left (fun acc c -> acc + c.errors) 0 cs in
  Printf.printf "  verdict_errors %d\n%!" errors;
  {
    correct = errors = 0;
    attempted = List.fold_left (fun acc (c : campaign) -> acc + c.attempted) 0 cs;
    failed = List.fold_left (fun acc (c : campaign) -> acc + c.failed) 0 cs;
    metrics;
    samples;
  }

let traced env wl ~seed =
  let dir, opts, targets = setup env wl ~seed in
  let c = run_campaign ~cli:env.cli ~dir ~opts targets in
  let layers, unmatched = Traced.run ~cli:env.cli ~work:dir ~smoke:env.smoke ~opts c.journals in
  if unmatched > 0 then
    Printf.eprintf "TRACE %s: %d journaled trial(s) name a pair phase 1 did not find\n%!"
      wl.W.name unmatched;
  let jsum f = Measure.sum (List.map (fun (_, j) -> f j) c.journals) in
  let metrics =
    layers
    @ [
        ("core.recall", Measure.ratio (fst c.recall) (snd c.recall));
        ("campaign.phase1_s", jsum (fun j -> j.Journal.phase1_s));
        ("campaign.phase2_s", jsum (fun j -> j.Journal.phase2_s));
        ("campaign.cancelled", jsum (fun j -> float_of_int j.Journal.cancelled));
        ("campaign.waves", jsum (fun j -> float_of_int j.Journal.waves));
      ]
  in
  let metrics = List.map (fun (n, _, _) -> (n, List.assoc n metrics)) per_layer in
  Printf.printf "%s (traced): seed %d\n" wl.W.name seed;
  List.iter
    (fun (n, v) -> Printf.printf "  %-26s %-6s %16.6f\n" n (unit_of n) v)
    metrics;
  let coverage = List.assoc "trace.coverage" metrics in
  if coverage < 0.9 || coverage > 1.1 then
    Printf.printf "  WARNING: trace.coverage %.3f is outside 0.9-1.1\n" coverage;
  Printf.printf "  verdict_errors %d\n%!" c.errors;
  {
    correct = c.errors = 0 && unmatched = 0;
    attempted = c.attempted;
    failed = c.failed;
    metrics;
    samples = [];
  }

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

let bench_metrics bench key =
  List.filter_map
    (fun m ->
      match (Json.member "name" m, Json.member "unit" m, Json.member "better" m) with
      | Some (Json.Str n), Some (Json.Str u), Some (Json.Str b) ->
          Some (n, u, b = "higher", Option.bind (Json.member "bound" m) Json.to_num)
      | _ -> None)
    (Json.to_list (Option.value ~default:Json.Null (Json.member key bench)))

(* BENCHMARK.json must name exactly the workloads and metrics this
   program runs and prints, with the same units and directions. *)
let check_bench path =
  let bench = Json.read_file path in
  let names l = List.sort compare l in
  let mine l = names l in
  let theirs key = names (List.map (fun (n, u, b, _) -> (n, u, b)) (bench_metrics bench key)) in
  let workloads =
    names
      (List.filter_map
         (fun w -> Option.bind (Json.member "name" w) Json.to_str)
         (Json.to_list (Option.value ~default:Json.Null (Json.member "workloads" bench))))
  in
  let problems =
    (if workloads <> names (List.map (fun w -> w.W.name) W.all) then [ "workloads" ] else [])
    @ (if theirs "end_to_end" <> mine (List.map (fun (n, u, b, _) -> (n, u, b)) end_to_end) then
         [ "end_to_end" ]
       else [])
    @ if theirs "per_layer" <> mine per_layer then [ "per_layer" ] else []
  in
  if problems <> [] then begin
    Printf.eprintf "%s disagrees with the benchmark on: %s\n%!" path (String.concat ", " problems);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)

type tagged = { workload : string; seed : int; trace : int; res : Json.t }

let read_results path =
  let ic = open_in_bin path in
  let rows = ref [] in
  (try
     while true do
       let l = String.trim (input_line ic) in
       if l <> "" then
         let j = Json.parse l in
         let str k = Option.bind (Json.member k j) Json.to_str in
         let num k = Option.bind (Json.member k j) Json.to_num in
         match (str "workload", num "seed", num "trace", Json.member "result" j) with
         | Some workload, Some seed, Some trace, Some res ->
             rows := { workload; seed = int_of_float seed; trace = int_of_float trace; res } :: !rows
         | _ -> failwith (path ^ ": malformed result line")
     done
   with End_of_file -> close_in ic);
  List.rev !rows

let metric_value res name =
  Option.bind (Json.member "metrics" res) (fun m ->
      Option.bind (Json.member name m) (fun v -> Option.bind (Json.member "value" v) Json.to_num))

(* The verdict of set B against set A for one (metric, workload): the
   BENCHMARK.json rule — worse or better only by more than the bound,
   unresolved when either set spreads wider than the bound unless every
   run of one side beats every run of the other. *)
let verdict ~higher ~bound a b =
  let ma = Measure.median a and mb = Measure.median b in
  let spread xs =
    let q1, m, q3 = Measure.quartiles xs in
    if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
  in
  let worse_by = if ma = 0.0 then 0.0 else (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
  let beats x y = if higher then x > y else x < y in
  let all_beat xs ys = List.for_all (fun x -> List.for_all (fun y -> beats x y) ys) xs in
  if Float.max (spread a) (spread b) > bound then
    if all_beat b a then "better" else if all_beat a b then "worse" else "unresolved"
  else if worse_by > bound then "worse"
  else if worse_by < -.bound then "better"
  else "within"

let compare_sets ~bench a_path b_path =
  let bench = Json.read_file bench in
  let a = read_results a_path and b = read_results b_path in
  let bad = ref 0 in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  List.iter
    (fun wl ->
      let pick rows trace = List.filter (fun r -> r.workload = wl && r.trace = trace) rows in
      let values rows name = List.filter_map (fun r -> metric_value r.res name) rows in
      Printf.printf "%s\n" wl;
      List.iter
        (fun (name, unit, higher, bound) ->
          let va = values (pick a 0) name and vb = values (pick b 0) name in
          if va <> [] && vb <> [] then begin
            let v = verdict ~higher ~bound:(Option.value ~default:0.0 bound) va vb in
            if v = "worse" then incr bad;
            Printf.printf "  %-26s %-6s A %12.6f  B %12.6f  (%d/%d runs)  %s\n" name unit
              (Measure.median va) (Measure.median vb) (List.length va) (List.length vb) v
          end)
        (bench_metrics bench "end_to_end");
      List.iter
        (fun (name, unit, _, _) ->
          let ta = pick a 1 and tb = pick b 1 in
          let va = values ta name and vb = values tb name in
          if va <> [] && vb <> [] then
            if unit = "count" then begin
              (* deterministic work: runs of the same seed must agree *)
              let pairs =
                List.concat_map
                  (fun ra ->
                    List.filter_map
                      (fun rb ->
                        if ra.seed = rb.seed then
                          Some (metric_value ra.res name, metric_value rb.res name)
                        else None)
                      tb)
                  ta
              in
              let mismatched = List.filter (fun (x, y) -> x <> y) pairs in
              if mismatched <> [] then incr bad;
              Printf.printf "  %-26s %-6s %s\n" name unit
                (if pairs = [] then "no common seed"
                 else if mismatched = [] then Printf.sprintf "match (%d seed pair(s))" (List.length pairs)
                 else Printf.sprintf "MISMATCH in %d seed pair(s)" (List.length mismatched))
            end
            else
              Printf.printf "  %-26s %-6s A %12.6f  B %12.6f  B/A %.3f\n" name unit
                (Measure.median va) (Measure.median vb)
                (Measure.ratio (Measure.median vb) (Measure.median va)))
        (bench_metrics bench "per_layer"))
    workloads;
  if !bad > 0 then begin
    Printf.printf "%d regression(s) or count mismatch(es)\n" !bad;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let usage () =
  prerr_endline
    "usage: campaign_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
     [--out FILE] [--smoke] [--cli EXE] [--data DIR] [--work DIR] [--bench FILE]\n\
    \       campaign_bench --compare A.json B.json [--bench FILE]";
  exit 2

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  let out = ref None and smoke = ref false and compare = ref None in
  let cli = ref (Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe") in
  let data = ref "campaign_bench" and work = ref ".campaign_bench" in
  let bench = ref "BENCHMARK.json" in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int n; parse rest
    | "--seconds" :: n :: rest -> seconds := float_of_int (int n); parse rest
    | "--trace" :: ("0" | "1" as n) :: rest -> trace := int n; parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--cli" :: f :: rest -> cli := f; parse rest
    | "--data" :: d :: rest -> data := d; parse rest
    | "--work" :: d :: rest -> work := d; parse rest
    | "--bench" :: f :: rest -> bench := f; parse rest
    | "--compare" :: a :: b :: rest -> compare := Some (a, b); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !compare with
  | Some (a, b) -> compare_sets ~bench:!bench a b
  | None ->
      if not (Sys.file_exists !cli) then begin
        Printf.eprintf "campaign_bench: CLI %s not found (build it with 'dune build')\n" !cli;
        exit 2
      end;
      let wls =
        if !workload = "all" then W.all
        else match W.find !workload with Some w -> [ w ] | None -> usage ()
      in
      if !smoke then check_bench !bench;
      let env = { cli = !cli; data = !data; work = !work; smoke = !smoke } in
      let results =
        List.concat_map
          (fun wl ->
            let one trace =
              let r =
                if trace = 1 then traced env wl ~seed:!seed
                else
                  untraced env wl ~seed:!seed
                    ~seconds:(if !smoke then 0.0 else !seconds)
                    ~min_reps:(if !smoke then 1 else 3)
              in
              let json = result_json r in
              Option.iter
                (fun f ->
                  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 f in
                  Printf.fprintf oc "%s\n"
                    (Json.to_string
                       (Json.Obj
                          [
                            ("workload", Json.Str wl.W.name);
                            ("seed", Json.Num (float_of_int !seed));
                            ("trace", Json.Num (float_of_int trace));
                            ("result", json);
                            ( "campaigns",
                              Json.Obj
                                (List.map
                                   (fun (n, xs) -> (n, Json.Arr (List.map (fun x -> Json.Num x) xs)))
                                   r.samples) );
                          ]));
                  close_out oc)
                !out;
              print_endline (Json.to_string json);
              r
            in
            if !smoke then
              let untraced = one 0 in
              [ untraced; one 1 ]
            else [ one !trace ])
          wls
      in
      if List.exists (fun r -> not r.correct) results then exit 1
