(* The traced run: per-layer numbers for one workload.

   It runs in-process and times each layer's public entry point from
   here, with no instrumentation inside lib/.  Phase 2 replays exactly
   the (pair, seed) list that the untraced campaign journaled, up to each
   cutoff (Journal.logical_trials), so the layer numbers describe the
   same work as the end-to-end numbers; trace.coverage checks that.
   Spans are kept in memory and written out once, at the end. *)

open Rf_runtime
module F = Racefuzzer.Fuzzer
module Static = Rf_static.Static
module Proc_pool = Rf_campaign.Proc_pool
module Event_log = Rf_campaign.Event_log

type span = { name : string; parent : string; start : float; stop : float }

let spans : span list ref = ref []

let record ~parent name start stop = spans := { name; parent; start; stop } :: !spans

let span ~parent name f =
  let t0 = Measure.now () in
  let r = f () in
  let t1 = Measure.now () in
  record ~parent name t0 t1;
  (r, t1 -. t0)

let write_spans path =
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("name", Json.Str s.name);
                ("parent", Json.Str s.parent);
                ("start", Json.Num s.start);
                ("stop", Json.Num s.stop);
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* Totals over the workload's targets (paper-suite has 16). *)
type acc = {
  mutable load_s : float;
  mutable build_s : float;
  mutable classify_s : float;
  mutable impossible : int;
  mutable plain_s : float;  (** detector-free phase-1 executions *)
  mutable plain_steps : int;
  mutable inline_s : float;
  mutable entries : int;
  mutable mem_events : int;
  mutable pairs : int;
  mutable peak_heap_mb : float;
  mutable record_s : float;
  mutable events : int;
  mutable bytes : int;
  mutable offline_s : float;
  mutable trial_spans : float list;
  mutable steps : int;
  mutable postponements : int;
  mutable hit_events : int;
  mutable timeout_releases : int;
  mutable evictions : int;
  mutable races : int;
  mutable trials : int;
  mutable unmatched : int;  (** journaled trials whose pair phase 1 did not find *)
  mutable wall1 : float;
  mutable wall2 : float;
  mutable shrink_s : float;
  mutable oracle_runs : int;
  mutable shrunk_before : int;
  mutable shrunk_after : int;
  mutable covered : float array;
      (** traced detection, trial and shrink time of the work the
          campaign did *)
  mutable journaled : float array;  (** the journal's phase 1, trial walls, repro span *)
}

let fresh () =
  {
    load_s = 0.0;
    build_s = 0.0;
    classify_s = 0.0;
    impossible = 0;
    plain_s = 0.0;
    plain_steps = 0;
    inline_s = 0.0;
    entries = 0;
    mem_events = 0;
    pairs = 0;
    peak_heap_mb = 0.0;
    record_s = 0.0;
    events = 0;
    bytes = 0;
    offline_s = 0.0;
    trial_spans = [];
    steps = 0;
    postponements = 0;
    hit_events = 0;
    timeout_releases = 0;
    evictions = 0;
    races = 0;
    trials = 0;
    unmatched = 0;
    wall1 = 0.0;
    wall2 = 0.0;
    shrink_s = 0.0;
    oracle_runs = 0;
    shrunk_before = 0;
    shrunk_after = 0;
    covered = Array.make 3 0.0;
    journaled = Array.make 3 0.0;
  }

(* The program the CLI would run for [arg], with its static model. *)
let load ~parent acc arg =
  if Sys.file_exists arg then begin
    let prog, dt = span ~parent "lang.load" (fun () -> Rf_lang.Lang.load_file arg) in
    acc.load_s <- acc.load_s +. dt;
    let st, dt = span ~parent "static.build" (fun () -> Static.of_program prog) in
    acc.build_s <- acc.build_s +. dt;
    (Rf_lang.Lang.program ~print:ignore prog, Some st)
  end
  else begin
    let w, dt = span ~parent "lang.load" (fun () -> Rf_workloads.Registry.find arg) in
    acc.load_s <- acc.load_s +. dt;
    match w with
    | None -> failwith ("unknown target " ^ arg)
    | Some w ->
        (* built-in models are constructed when the program starts *)
        let st, dt = span ~parent "static.build" (fun () -> w.Rf_workloads.Workload.static) in
        acc.build_s <- acc.build_s +. dt;
        (w.Rf_workloads.Workload.program, st)
  end

(* Run [items] through the domain tier, Supervisor.supervise over
   [width] slots, as the campaign's in-process phase 2 does: results in
   input order, each with its own start and stop time. *)
let replay ~width ~program items =
  let n = Array.length items in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let max_steps = Engine.default_config.Engine.max_steps in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let pair, seed = items.(i) in
      let t0 = Measure.now () in
      let r = F.run_trial ~max_steps ~program pair seed in
      out.(i) <- Some (r, t0, Measure.now ());
      work ()
    end
  in
  let t0 = Measure.now () in
  ignore (Rf_campaign.Supervisor.supervise ~domains:width (fun ~domain:_ -> work ()));
  (Array.map Option.get out, Measure.now () -. t0)

(* The pair results the campaign aggregated: trials grouped by pair in
   first-seen order, each group in seed order. *)
let pair_results completed =
  let order = ref [] and by_pair = Hashtbl.create 16 in
  List.iter
    (fun (pair, (t : F.trial)) ->
      if not (Hashtbl.mem by_pair pair) then order := pair :: !order;
      Hashtbl.replace by_pair pair (t :: Option.value ~default:[] (Hashtbl.find_opt by_pair pair)))
    completed;
  List.rev_map
    (fun pair ->
      let trials =
        List.sort (fun (a : F.trial) b -> compare a.F.t_seed b.F.t_seed) (Hashtbl.find by_pair pair)
      in
      F.aggregate_trials ~pair ~wall:0.0 trials)
    !order

let target acc ~(opts : Workloads.opts) ~work ~(target : Workloads.target) ~(journal : Journal.t) =
  let parent = "target:" ^ target.Workloads.arg in
  let program, static = load ~parent acc target.Workloads.arg in
  let seeds = Workloads.phase1_seeds in
  (* detector-free executions of the phase-1 seeds: the base of both taxes *)
  let plain, dt =
    span ~parent "runtime.plain" (fun () ->
        List.fold_left
          (fun n seed ->
            let o =
              Engine.run
                ~config:{ Engine.default_config with Engine.seed }
                ~strategy:(Strategy.random ()) program
            in
            n + o.Outcome.steps)
          0 seeds)
  in
  acc.plain_s <- acc.plain_s +. dt;
  acc.plain_steps <- acc.plain_steps + plain;
  let (p1, inline_s), heap_words =
    Measure.with_peak_heap (fun () ->
        span ~parent "detect.inline" (fun () -> F.phase1 ~seeds ~detect:F.Inline program))
  in
  acc.inline_s <- acc.inline_s +. inline_s;
  let stats = p1.F.p1_stats in
  acc.entries <- acc.entries + stats.Rf_detect.Detector.st_entries;
  acc.mem_events <- acc.mem_events + stats.Rf_detect.Detector.st_mem_events;
  let potential = Rf_util.Site.Pair.Set.elements (F.potential_pairs p1) in
  acc.pairs <- acc.pairs + List.length potential;
  acc.peak_heap_mb <-
    Float.max acc.peak_heap_mb
      (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0);
  let shards = Option.value ~default:1 opts.Workloads.offline_shards in
  let recorded, recorded_s =
    span ~parent "detect.recorded" (fun () ->
        F.phase1 ~seeds ~detect:(F.Recorded { shards }) program)
  in
  (match recorded.F.p1_recording with
  | Some r ->
      acc.record_s <- acc.record_s +. r.F.rec_wall;
      acc.events <- acc.events + r.F.rec_events;
      acc.bytes <- acc.bytes + r.F.rec_bytes;
      acc.offline_s <- acc.offline_s +. r.F.detect_wall
  | None -> ());
  (match static with
  | None -> ()
  | Some st ->
      let impossible, dt =
        span ~parent "static.classify" (fun () ->
            ignore (Static.count st (Static.universe st));
            let c =
              List.fold_left
                (fun c p -> Static.count_verdict c (Static.classify st p))
                Static.no_counts potential
            in
            c.Static.n_impossible)
      in
      acc.classify_s <- acc.classify_s +. dt;
      acc.impossible <- acc.impossible + impossible);
  (* phase 2: the journaled (pair, seed) list, up to each cutoff *)
  let trials = Journal.logical_trials journal in
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace by_key (Journal.pair_key (Rf_util.Site.Pair.to_string p)) p)
    potential;
  let items =
    List.filter_map
      (fun (tr : Journal.trial) ->
        match Hashtbl.find_opt by_key (Journal.pair_key tr.Journal.pair) with
        | Some p -> Some (p, tr.Journal.seed)
        | None ->
            acc.unmatched <- acc.unmatched + 1;
            None)
      trials
    |> Array.of_list
  in
  let r1, wall1 = replay ~width:1 ~program items in
  let r2, wall2 = replay ~width:2 ~program items in
  acc.wall1 <- acc.wall1 +. wall1;
  acc.wall2 <- acc.wall2 +. wall2;
  (* spans come from the replay shaped like the campaign's phase 2: its
     domains share one heap like the 2-slot replay's; worker processes
     run one trial at a time each, on heaps of their own *)
  let mirrored = if opts.Workloads.workers = 0 && opts.Workloads.domains > 1 then r2 else r1 in
  let completed = ref [] in
  Array.iteri
    (fun i (r, t0, t1) ->
      record ~parent "core.trial" t0 t1;
      acc.trial_spans <- (t1 -. t0) :: acc.trial_spans;
      acc.trials <- acc.trials + 1;
      match r with
      | F.Completed t ->
          let rep = t.F.t_report in
          acc.steps <- acc.steps + t.F.t_outcome.Outcome.steps;
          acc.postponements <- acc.postponements + rep.Racefuzzer.Algo.postponements;
          acc.hit_events <- acc.hit_events + rep.Racefuzzer.Algo.hit_events;
          acc.timeout_releases <- acc.timeout_releases + rep.Racefuzzer.Algo.timeout_releases;
          acc.evictions <- acc.evictions + rep.Racefuzzer.Algo.evictions;
          if Racefuzzer.Algo.race_created rep then acc.races <- acc.races + 1;
          completed := (fst items.(i), t) :: !completed
      | F.Harness_crash _ | F.Budget_exhausted _ -> ())
    mirrored;
  let trial_s = Measure.sum (Array.to_list (Array.map (fun (_, t0, t1) -> t1 -. t0) mirrored)) in
  (* repro shrinking: what the campaign ran, or, where the campaign does
     not shrink, one witness per harmful pair at fuel 10 so the layer is
     still measured on this workload's schedules *)
  let results = pair_results (List.rev !completed) in
  let dir = Filename.concat work "trace-repro" in
  let summary, shrink_s =
    span ~parent "replay.shrink" (fun () ->
        match opts.Workloads.repro_fuel with
        | Some fuel ->
            Rf_campaign.Repro.write_all ~fuel ~dir ~target:target.Workloads.arg ~program results
        | None ->
            Rf_campaign.Repro.write_all ~fuel:10 ~witnesses:1 ~dir ~target:target.Workloads.arg
              ~program results)
  in
  acc.shrink_s <- acc.shrink_s +. shrink_s;
  acc.oracle_runs <- acc.oracle_runs + summary.Rf_campaign.Repro.oracle_runs;
  List.iter
    (fun (e : Rf_campaign.Repro.entry) ->
      let st = e.Rf_campaign.Repro.r_stats in
      acc.shrunk_before <- acc.shrunk_before + st.Rf_replay.Shrinker.sh_steps_before;
      acc.shrunk_after <- acc.shrunk_after + st.Rf_replay.Shrinker.sh_steps_after)
    summary.Rf_campaign.Repro.written;
  let detect_s = if opts.Workloads.offline_shards = None then inline_s else recorded_s in
  let shrink_covered = if opts.Workloads.repro_fuel = None then 0.0 else shrink_s in
  let add a xs = List.iteri (fun i x -> a.(i) <- a.(i) +. x) xs in
  add acc.covered [ detect_s; trial_s; shrink_covered ];
  add acc.journaled
    [
      journal.Journal.phase1_s;
      Measure.sum (List.map (fun (t : Journal.trial) -> t.Journal.wall) trials);
      journal.Journal.repro_s;
    ]

(* ------------------------------------------------------------------ *)
(* Campaign-level layers, measured once per traced run                 *)

(* Proc_pool round trip: assign -> Ev_result, minus the trial's own wall,
   with one worker running figure1's real pair. *)
let ipc ~cli ~n =
  let spec =
    {
      Proc_pool.sp_cmd = [| cli; "campaign-worker" |];
      sp_workers = 1;
      sp_heartbeat = Proc_pool.default_heartbeat;
      sp_rlimit_as_mb = None;
      sp_rlimit_cpu_s = None;
      sp_policy = Rf_campaign.Supervisor.default_policy;
      sp_target = "figure1";
    }
  in
  let init =
    {
      Proc_pool.i_target = "figure1";
      i_max_steps = Engine.default_config.Engine.max_steps;
      i_postpone = None;
      i_detector_budget = None;
      i_mem_budget = None;
      i_no_degrade = false;
      i_trial_wall = None;
    }
  in
  let (pool, ready), spawn_s =
    span ~parent:"run" "campaign.worker_spawn" (fun () ->
        let p = Proc_pool.create spec ~init in
        (p, Proc_pool.await_ready p ~timeout:15.0))
  in
  let overhead = ref 0.0 in
  Fun.protect
    ~finally:(fun () -> Proc_pool.shutdown pool ~grace:1.0)
    (fun () ->
      if not ready then failwith "campaign worker did not start";
      ignore
        (span ~parent:"run" "campaign.ipc" (fun () ->
             for id = 0 to n - 1 do
               let t0 = Measure.now () in
               Proc_pool.assign pool ~worker:0
                 {
                   Proc_pool.a_id = id;
                   a_pair = Rf_workloads.Figure1.real_pair;
                   a_seed = id;
                   a_crash = false;
                   a_stall = 0.0;
                   a_tripped = false;
                   a_die = false;
                   a_torn = false;
                   a_hang = false;
                 };
               let rec await () =
                 let found =
                   List.find_map
                     (function
                       | Proc_pool.Ev_result { ev_id; ev_result; _ } when ev_id = id ->
                           Some ev_result
                       | Proc_pool.Ev_died { ev_reason; _ } -> failwith ("worker died: " ^ ev_reason)
                       | _ -> None)
                     (Proc_pool.poll pool ~timeout:5.0)
                 in
                 match found with Some r -> r | None -> await ()
               in
               let t_wall =
                 match await () with
                 | Proc_pool.T_finished { t_wall; _ } | Proc_pool.T_exhausted { t_wall; _ } -> t_wall
                 | Proc_pool.T_crashed _ -> 0.0
               in
               overhead := !overhead +. (Measure.now () -. t0 -. t_wall)
             done)));
  (!overhead /. float_of_int n *. 1000.0, spawn_s)

(* One sealed, flushed journal line, as Trial_finished costs it. *)
let journal_line_us ~path ~n =
  let log = Event_log.open_file path in
  let (), dt =
    span ~parent:"run" "campaign.journal_lines" (fun () ->
        for seed = 1 to n do
          Event_log.emit log
            (Event_log.Trial_finished
               {
                 pair = "(bench:1(x=), bench:2(x(read)))";
                 seed;
                 domain = 0;
                 race = true;
                 error = false;
                 deadlock = false;
                 steps = 1000;
                 switches = 10;
                 exns = 0;
                 wall = 0.001;
                 degraded = false;
                 level = "full";
                 trigger = "";
                 evicted = 0;
               })
        done)
  in
  Event_log.close log;
  dt /. float_of_int n *. 1e6

(* ------------------------------------------------------------------ *)

let run ~cli ~work ~smoke ~(opts : Workloads.opts) targets =
  spans := [];
  let acc = fresh () in
  List.iter (fun (t, j) -> target acc ~opts ~work ~target:t ~journal:j) targets;
  let ipc_ms, spawn_s = ipc ~cli ~n:(if smoke then 50 else 500) in
  let line_us =
    journal_line_us ~path:(Filename.concat work "journal-lines.jsonl") ~n:(if smoke then 200 else 2000)
  in
  write_spans (Filename.concat work "spans.jsonl");
  let f = float_of_int and ratio = Measure.ratio in
  let total = Array.fold_left ( +. ) 0.0 in
  let metrics =
    [
      ("detect.inline_s", acc.inline_s);
      ("detect.tax", ratio acc.inline_s acc.plain_s);
      ("detect.entries", f acc.entries);
      ("detect.mem_events", f acc.mem_events);
      ("detect.pairs", f acc.pairs);
      ("detect.peak_heap_mb", acc.peak_heap_mb);
      ("events.record_s", acc.record_s);
      ("events.events", f acc.events);
      ("events.bytes", f acc.bytes);
      ("events.record_tax", ratio acc.record_s acc.plain_s);
      ("detect.offline_s", acc.offline_s);
      ("runtime.steps", f acc.steps);
      ("runtime.steps_per_s", ratio (f acc.plain_steps) acc.plain_s);
      ("core.steps_per_s", ratio (f acc.steps) (Measure.sum acc.trial_spans));
      ("core.trial_p50_ms", 1000.0 *. Measure.percentile 50.0 acc.trial_spans);
      ("core.trial_p90_ms", 1000.0 *. Measure.percentile 90.0 acc.trial_spans);
      ("core.postponements", f acc.postponements);
      ("core.hit_events", f acc.hit_events);
      ("core.timeout_releases", f acc.timeout_releases);
      ("core.evictions", f acc.evictions);
      ("core.race_rate", ratio (f acc.races) (f acc.trials));
      ("core.par2_speedup", ratio acc.wall1 acc.wall2);
      ("campaign.ipc_overhead_ms", ipc_ms);
      ("campaign.worker_spawn_s", spawn_s);
      ("campaign.journal_line_us", line_us);
      ("replay.shrink_s", acc.shrink_s);
      ("replay.oracle_runs", f acc.oracle_runs);
      ("replay.steps_ratio", ratio (f acc.shrunk_before) (f acc.shrunk_after));
      ("lang.load_s", acc.load_s);
      ("static.build_s", acc.build_s);
      ("static.classify_s", acc.classify_s);
      ("static.impossible", f acc.impossible);
      ("trace.coverage", ratio (total acc.covered) (total acc.journaled));
    ]
  in
  Printf.printf
    "  coverage parts (traced / journal): phase 1 %.3f/%.3f s, trials %.3f/%.3f s, \
     shrink %.3f/%.3f s\n"
    acc.covered.(0) acc.journaled.(0) acc.covered.(1) acc.journaled.(1) acc.covered.(2)
    acc.journaled.(2);
  (metrics, acc.unmatched)
