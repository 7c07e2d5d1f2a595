(* Scheduler micro-benchmark: raw engine throughput (steps/sec) on three
   synthetic workloads that isolate the per-step hot paths, plus the
   serve family's test-sized instance —

     access-heavy : unsynchronized shared reads/writes (Mem fast path,
                    lockset snapshots, emit)
     lock-heavy   : one contended monitor (acquire/release bookkeeping,
                    enabled-set transitions)
     fork-heavy   : a wide burst of forks + joins (thread-table growth,
                    join wake-ups, death bookkeeping)
     stress-serve-small : a server-shaped program (many locations,
                    fork/join-wide rounds)

   Each workload is measured three ways:

     sequential          : Engine.run under the simple random scheduler
     campaign            : the whole production pipeline (Campaign.run:
                           inline phase-1 detection + phase-2 trials)
     campaign-offline    : the same pipeline with --offline-detect at one
                           shard, which is inline phase-1 detection

   so the detection tax — sequential vs campaign throughput — is tracked
   PR-over-PR.  Each harness runs three times and
   keeps its fastest repetition: slower repetitions only add scheduler
   and GC noise from the shared machine, never work the code does.
   [--max-tax R] turns the access-heavy and fork-heavy ratios into a CI
   gate: the bench fails if either sequential/campaign-offline exceeds R,
   both sides single-domain.

   Results are written as JSON (default BENCH_engine.json) so the perf
   trajectory is tracked PR-over-PR.  The same executable owns the
   trace-fingerprint drift check used by CI: [--write-golden FILE] records
   the fingerprints of every registry workload (plus the bench
   workloads) at fixed seeds, and [--check FILE] recomputes and fails on
   any drift — pinning engine behaviour, not just its speed.

   Usage:
     dune exec bench/engine_bench.exe                      # full bench
     dune exec bench/engine_bench.exe -- --smoke           # tiny budget (CI)
     dune exec bench/engine_bench.exe -- --out FILE        # JSON destination
     dune exec bench/engine_bench.exe -- --max-tax R       # gate on the ratio
     dune exec bench/engine_bench.exe -- --check FILE      # fingerprint drift
     dune exec bench/engine_bench.exe -- --write-golden FILE
     dune exec bench/engine_bench.exe -- --fingerprints    # print, no bench *)

open Rf_util
open Rf_runtime
module W = Rf_workloads

let s = Site.make

(* ------------------------------------------------------------------ *)
(* Workloads.  Campaign rows run the whole pipeline — phase 1 discovers
   the racing pairs itself, exactly as production does.                  *)

type bench_workload = { bname : string; program : unit -> unit }

let access_heavy ~threads ~iters =
  let r = s "ah-read" and w = s "ah-write" in
  {
    bname = "access-heavy";
    program =
      (fun () ->
        let c = Api.Cell.make ~name:"hot" 0 in
        let hs =
          List.init threads (fun i ->
              Api.fork ~name:(Printf.sprintf "a%d" i) (fun () ->
                  for _ = 1 to iters do
                    let v = Api.Cell.read ~site:r c in
                    Api.Cell.write ~site:w c (v + 1)
                  done))
        in
        List.iter Api.join hs);
  }

let lock_heavy ~threads ~iters =
  let r = s "lh-read" and w = s "lh-write" in
  {
    bname = "lock-heavy";
    program =
      (fun () ->
        let c = Api.Cell.make ~name:"counter" 0 in
        let l = Lock.create ~name:"hotlock" () in
        let hs =
          List.init threads (fun i ->
              Api.fork ~name:(Printf.sprintf "l%d" i) (fun () ->
                  for _ = 1 to iters do
                    Api.sync ~site:(s "lh-sync") l (fun () ->
                        let v = Api.Cell.read ~site:r c in
                        Api.Cell.write ~site:w c (v + 1))
                  done))
        in
        List.iter Api.join hs);
  }

let fork_heavy ~children ~iters =
  let w = s "fh-write" in
  {
    bname = "fork-heavy";
    program =
      (fun () ->
        let c = Api.Cell.make ~name:"sink" 0 in
        let hs =
          List.init children (fun i ->
              Api.fork ~name:(Printf.sprintf "f%d" i) (fun () ->
                  for _ = 1 to iters do
                    Api.Cell.write ~site:w c i
                  done))
        in
        List.iter Api.join hs);
  }

(* The serve family's test-sized instance rides along at both budgets:
   its campaign rows put a server-shaped (many-location, fork/join-wide)
   detector load on the memory column, and the fingerprint golden pins
   its schedule. *)
let serve_small =
  let w = List.hd W.Serve.small in
  { bname = w.W.Workload.name; program = w.W.Workload.program }

let workloads ~smoke =
  if smoke then
    [
      access_heavy ~threads:4 ~iters:200;
      lock_heavy ~threads:4 ~iters:60;
      fork_heavy ~children:60 ~iters:4;
      serve_small;
    ]
  else
    [
      access_heavy ~threads:8 ~iters:20_000;
      lock_heavy ~threads:8 ~iters:4_000;
      fork_heavy ~children:2_000 ~iters:8;
      serve_small;
    ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

type row = {
  r_workload : string;
  r_harness : string;
      (* "sequential" | "campaign" | "campaign-offline" *)
  r_domains : int;
  r_runs : int;
  r_steps : int;  (* total executed scheduler steps, deterministic *)
  r_wall : float;
  r_steps_per_sec : float;
  r_peak_heap_words : int;  (* max major-heap words observed during the row *)
}

(* Peak major-heap footprint of one measured region: sample [heap_words]
   at every major-collection end (Gc alarm) and once more at the finish.
   Words, not bytes, so the number is word-size neutral.  OCaml 5.1's
   [Gc.compact] does not give the major heap back, so a region starts
   from whatever heap its process already grew: [measure_in_child] runs
   every repetition of every row in a fresh process. *)
let with_peak_heap f =
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let sample () =
    let hw = (Gc.quick_stat ()).Gc.heap_words in
    if hw > !peak then peak := hw
  in
  let alarm = Gc.create_alarm sample in
  let finish () =
    Gc.delete_alarm alarm;
    sample ()
  in
  (match f () with
  | r ->
      finish ();
      (r, !peak)
  | exception e ->
      finish ();
      raise e)

(* The one throughput division of the whole bench: guarded so a
   sub-resolution wall clock can never leak inf/nan into the JSON. *)
let per_sec steps wall = if wall > 0.0 then float_of_int steps /. wall else 0.0

let run_once ~seed (wl : bench_workload) =
  Engine.run
    ~config:{ Engine.default_config with seed; max_steps = 50_000_000 }
    ~strategy:(Strategy.random ()) wl.program

let measure_sequential ~min_wall (wl : bench_workload) =
  ignore (run_once ~seed:0 wl) (* warmup *);
  let steps = ref 0 and runs = ref 0 in
  let (wall, _), peak =
    with_peak_heap (fun () ->
        let t0 = Unix.gettimeofday () in
        let elapsed () = Unix.gettimeofday () -. t0 in
        while elapsed () < min_wall do
          let o = run_once ~seed:(1 + !runs) wl in
          steps := !steps + o.Outcome.steps;
          incr runs
        done;
        (elapsed (), ()))
  in
  {
    r_workload = wl.bname;
    r_harness = "sequential";
    r_domains = 1;
    r_runs = !runs;
    r_steps = !steps;
    r_wall = wall;
    r_steps_per_sec = per_sec !steps wall;
    r_peak_heap_words = peak;
  }

(* The whole pipeline as production runs it — phase 1 plus every
   phase-2 trial over the potential pairs
   phase 1 found.  Steps and wall cover both phases, so the row's
   steps/sec is the end-to-end campaign throughput the detection-tax gate
   compares against [sequential].  The wall is the [Campaign.run] call:
   phase 1 may overlap phase 2, so the two phase walls do not add up. *)
let measure_campaign ~harness ~domains ~trials (wl : bench_workload) =
  let (r, wall), peak =
    with_peak_heap (fun () ->
        let t0 = Unix.gettimeofday () in
        let r =
          Rf_campaign.Campaign.run
            {
              Rf_campaign.Campaign.default_config with
              domains;
              phase1_seeds = [ 0; 1; 2 ];
              seeds_per_pair = List.init trials Fun.id;
              cutoff = false;
            }
            wl.program
        in
        (r, Unix.gettimeofday () -. t0))
  in
  let a = r.Rf_campaign.Campaign.analysis in
  let p1_steps =
    List.fold_left
      (fun acc (o : Outcome.t) -> acc + o.Outcome.steps)
      0 a.Racefuzzer.Fuzzer.a_phase1.Racefuzzer.Fuzzer.p1_outcomes
  in
  let steps =
    List.fold_left
      (fun acc (pr : Racefuzzer.Fuzzer.pair_result) ->
        List.fold_left
          (fun acc (t : Racefuzzer.Fuzzer.trial) ->
            acc + t.Racefuzzer.Fuzzer.t_outcome.Outcome.steps)
          acc pr.Racefuzzer.Fuzzer.trials)
      p1_steps a.Racefuzzer.Fuzzer.results
  in
  let stats = r.Rf_campaign.Campaign.stats in
  {
    r_workload = wl.bname;
    r_harness = harness;
    r_domains = domains;
    r_runs = stats.Rf_campaign.Campaign.s_trials;
    r_steps = steps;
    r_wall = wall;
    r_steps_per_sec = per_sec steps wall;
    r_peak_heap_words = peak;
  }

(* One row of the bench: a workload under one harness on [domains]. *)
type spec = { s_workload : bench_workload; s_harness : string; s_domains : int }

let measure_spec ~smoke spec =
  let min_wall = if smoke then 0.05 else 0.5 in
  let trials = if smoke then 6 else 40 in
  let wl = spec.s_workload and domains = spec.s_domains in
  match spec.s_harness with
  | "sequential" -> measure_sequential ~min_wall wl
  | ("campaign" | "campaign-offline") as harness ->
      (* one offline shard is inline detection, so both rows run the same
         campaign *)
      measure_campaign ~harness ~domains ~trials wl
  | h -> invalid_arg ("engine_bench: unknown harness " ^ h)

(* Run one repetition of a row in a fresh process ([--row], below) and
   read its row back, so its heap column does not inherit the heap that
   earlier rows grew. *)
let measure_in_child ~smoke spec =
  let out = Filename.temp_file "engine_bench" ".row" in
  let argv =
    Array.of_list
      ([ Sys.executable_name; "--row"; spec.s_workload.bname; spec.s_harness;
         string_of_int spec.s_domains ]
      @ if smoke then [ "--smoke" ] else [])
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin fd Unix.stderr in
  Unix.close fd;
  let status = snd (Unix.waitpid [] pid) in
  let line = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  match status with
  | Unix.WEXITED 0 ->
      Scanf.sscanf line "%d %d %h %d" (fun runs steps wall peak ->
          {
            r_workload = spec.s_workload.bname;
            r_harness = spec.s_harness;
            r_domains = spec.s_domains;
            r_runs = runs;
            r_steps = steps;
            r_wall = wall;
            r_steps_per_sec = per_sec steps wall;
            r_peak_heap_words = peak;
          })
  | _ ->
      Fmt.epr "engine_bench: row %s/%s failed@." spec.s_workload.bname spec.s_harness;
      exit 1

(* The fastest of three repetitions of one harness, by throughput.  Noise
   on a shared machine only ever slows a run down, so the fastest
   repetition is the best estimate of what the code costs (the same
   reasoning as the campaign benchmark's fast quartile). *)
let fastest measure =
  List.fold_left
    (fun best r -> if r.r_steps_per_sec > best.r_steps_per_sec then r else best)
    (measure ())
    [ measure (); measure () ]

(* ------------------------------------------------------------------ *)
(* JSON output (hand-rolled: no JSON dependency in the tree)           *)

(* Schema 2: the domain count moved from the file header into each result
   row — sequential rows are always single-domain while campaign rows run
   wherever --domains puts them, and trajectories must compare like with
   like.
   Schema 3: each row gains [peak_heap_words], the maximum major-heap
   footprint observed while the row ran (Gc-alarm sampled), so
   detector-memory trajectories are tracked alongside throughput.  Every
   repetition of a row runs in its own process, so the column is the
   row's own peak, whatever rows ran before it; files written before
   that could start a row from an earlier row's high-water mark. *)
let write_json ~path ~mode rows =
  let oc = open_out path in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"schema\": \"rf-bench-engine/3\",\n";
  pf "  \"mode\": %S,\n" mode;
  pf "  \"results\": [\n";
  List.iteri
    (fun i r ->
      pf
        "    {\"workload\": %S, \"harness\": %S, \"domains\": %d, \"runs\": %d, \
         \"steps\": %d, \"wall_s\": %.6f, \"steps_per_sec\": %.1f, \
         \"peak_heap_words\": %d}%s\n"
        r.r_workload r.r_harness r.r_domains r.r_runs r.r_steps r.r_wall
        r.r_steps_per_sec r.r_peak_heap_words
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pf "  ]\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Trace fingerprints: the drift check.

   Every registry workload plus the bench workloads, run with a
   recorded trace at two fixed seeds under the simple random scheduler.
   Fingerprints are structural (Event.hash_fold) and stable across
   processes, so they can live in a checked-in golden file.             *)

let fingerprint_seeds = [ 1; 7 ]

let fingerprint_subjects () =
  List.map
    (fun (w : W.Workload.t) -> (w.W.Workload.name, w.W.Workload.program))
    W.Registry.all
  @ List.map (fun wl -> (wl.bname, wl.program)) (workloads ~smoke:true)

let compute_fingerprints () =
  List.concat_map
    (fun (name, program) ->
      List.map
        (fun seed ->
          let o =
            Engine.run
              ~config:
                { Engine.default_config with seed; record_trace = true }
              ~strategy:(Strategy.random ()) program
          in
          let fp =
            match o.Outcome.trace with
            | Some tr -> Rf_events.Trace.fingerprint tr
            | None -> 0
          in
          (name, seed, fp))
        fingerprint_seeds)
    (fingerprint_subjects ())

let write_golden path entries =
  let oc = open_out path in
  Printf.fprintf oc
    "# Golden trace fingerprints: <workload> <seed> <fingerprint>\n";
  Printf.fprintf oc
    "# Regenerate with: dune exec bench/engine_bench.exe -- --write-golden %s\n"
    path;
  List.iter
    (fun (name, seed, fp) -> Printf.fprintf oc "%s %d %d\n" name seed fp)
    entries;
  close_out oc

let read_golden path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%s %d %d" (fun name seed fp ->
             entries := (name, seed, fp) :: !entries)
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

let check_golden path =
  let golden = read_golden path in
  let current = compute_fingerprints () in
  let lookup name seed =
    List.find_opt (fun (n, sd, _) -> n = name && sd = seed) current
  in
  let drift = ref 0 in
  List.iter
    (fun (name, seed, fp) ->
      match lookup name seed with
      | Some (_, _, fp') when fp' = fp -> ()
      | Some (_, _, fp') ->
          incr drift;
          Fmt.epr "DRIFT %s seed %d: golden %d, got %d@." name seed fp fp'
      | None ->
          incr drift;
          Fmt.epr "DRIFT %s seed %d: missing from current build@." name seed)
    golden;
  if golden = [] then begin
    Fmt.epr "golden file %s is empty@." path;
    exit 2
  end;
  if !drift > 0 then begin
    Fmt.epr "%d fingerprint(s) drifted against %s@." !drift path;
    exit 1
  end;
  Fmt.pr "fingerprints: %d entries match %s@." (List.length golden) path

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let () =
  let smoke = ref false in
  let out = ref "BENCH_engine.json" in
  let check = ref None in
  let write_golden_to = ref None in
  let fingerprints_only = ref false in
  let domains = ref (min 4 (Domain.recommended_domain_count ())) in
  let max_tax = ref None in
  let row = ref None in
  let rec parse = function
    | [] -> ()
    | "--row" :: w :: h :: d :: rest ->
        row := Some (w, h, int_of_string d);
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--check" :: f :: rest ->
        check := Some f;
        parse rest
    | "--write-golden" :: f :: rest ->
        write_golden_to := Some f;
        parse rest
    | "--fingerprints" :: rest ->
        fingerprints_only := true;
        parse rest
    | "--domains" :: n :: rest ->
        domains := int_of_string n;
        parse rest
    | "--max-tax" :: r :: rest ->
        max_tax := Some (float_of_string r);
        parse rest
    | a :: _ ->
        Fmt.epr
          "usage: engine_bench [--smoke] [--out FILE] [--check FILE] \
           [--write-golden FILE] [--fingerprints] [--domains N] [--max-tax R] \
           (got %s)@."
          a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !row with
  | Some (w, h, d) ->
      let wl = List.find (fun wl -> wl.bname = w) (workloads ~smoke:!smoke) in
      let r = measure_spec ~smoke:!smoke { s_workload = wl; s_harness = h; s_domains = d } in
      Printf.printf "%d %d %h %d\n" r.r_runs r.r_steps r.r_wall r.r_peak_heap_words;
      exit 0
  | None -> ());
  (match !write_golden_to with
  | Some path ->
      write_golden path (compute_fingerprints ());
      Fmt.pr "wrote golden fingerprints to %s@." path
  | None -> ());
  if !fingerprints_only then
    List.iter
      (fun (name, seed, fp) -> Fmt.pr "%s %d %d@." name seed fp)
      (compute_fingerprints ())
  else begin
    let wls = workloads ~smoke:!smoke in
    let spec wl harness domains = { s_workload = wl; s_harness = harness; s_domains = domains } in
    (* The tax compares like with like: sequential rows are single-domain,
       so the gate reads a single-domain campaign-offline row, measured
       extra when --domains puts the regular rows elsewhere (parallel
       phase-2 scheduling on a shared machine is noise, not detection). *)
    let gated = [ "access-heavy"; "fork-heavy" ] in
    let gate_row wl =
      if !max_tax <> None && !domains <> 1 && List.mem wl.bname gated then
        [ spec wl "campaign-offline" 1 ]
      else []
    in
    (* A campaign over a workload whose phase 1 reports no pair runs no
       trial: its row would time phase 1 alone, and say nothing about the
       campaign. *)
    let campaign_rows wl =
      let p1 = Racefuzzer.Fuzzer.phase1 ~seeds:[ 0; 1; 2 ] wl.program in
      if Site.Pair.Set.is_empty (Racefuzzer.Fuzzer.potential_pairs p1) then begin
        Fmt.pr "%s: phase 1 reports no pair, campaign harnesses skipped@." wl.bname;
        []
      end
      else [ spec wl "campaign" !domains; spec wl "campaign-offline" !domains ] @ gate_row wl
    in
    let rows =
      List.concat_map
        (fun wl ->
          spec wl "sequential" 1 :: campaign_rows wl)
        wls
      |> List.map (fun spec -> fastest (fun () -> measure_in_child ~smoke:!smoke spec))
    in
    Fmt.pr "%-18s %-19s %3s %8s %12s %10s %14s %13s@." "workload" "harness"
      "dom" "runs" "steps" "wall(s)" "steps/sec" "peak-heap-w";
    List.iter
      (fun r ->
        Fmt.pr "%-18s %-19s %3d %8d %12d %10.3f %14.0f %13d@." r.r_workload
          r.r_harness r.r_domains r.r_runs r.r_steps r.r_wall r.r_steps_per_sec
          r.r_peak_heap_words)
      rows;
    write_json ~path:!out ~mode:(if !smoke then "smoke" else "full") rows;
    Fmt.pr "wrote %s@." !out;
    (* The detection-tax gate: sequential vs single-domain offline-campaign
       throughput on the access-heavy workload (the hottest Mem path, where
       the tax historically peaked at ~18x) and the fork-heavy one (the
       widest vector clocks). *)
    match !max_tax with
    | None -> ()
    | Some ceiling ->
        List.iter
          (fun workload ->
            let find harness =
              List.find_opt
                (fun r ->
                  r.r_workload = workload && r.r_harness = harness
                  && r.r_domains = 1)
                rows
            in
            match (find "sequential", find "campaign-offline") with
            | Some seq, Some off when off.r_steps_per_sec > 0.0 ->
                let tax = seq.r_steps_per_sec /. off.r_steps_per_sec in
                Fmt.pr "detection tax (%s, offline): %.2fx (ceiling %.2fx)@."
                  workload tax ceiling;
                if tax > ceiling then begin
                  Fmt.epr
                    "FAIL: %s detection tax %.2fx exceeds --max-tax %.2fx@."
                    workload tax ceiling;
                  exit 1
                end
            | _ ->
                Fmt.epr "FAIL: --max-tax given but %s rows are missing@." workload;
                exit 1)
          gated
  end;
  match !check with Some path -> check_golden path | None -> ()
