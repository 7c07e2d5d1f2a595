(* Golden RFL trace rows: each row runs one RFL program under one
   strategy and pins the run's structural trace fingerprint, step and
   switch counts, uncaught exceptions (text @ site) and a digest of what
   the program printed, against test/golden_rfl_traces.txt.  Programs:
   every examples/programs/*.rfl, the three benchmark-shaped fixtures
   under test/fixtures, and 40 rfl_gen programs drawn from a fixed
   random state.  Strategies: random at seeds 0, 1 and 7, and one
   RaceFuzzer trial (seed 0) on the first phase-1 pair (seed 0; first by
   site text, so the row does not depend on interning order), which also
   pins the trial's hit events and postponements.

   Trace fingerprints hash sites by key, not registry id, so the rows do
   not depend on which program ran first in the process.

   The "alloc" group pins minor-heap words per engine step: random runs
   of two fork-heavy programs (see [alloc_bounds]) and RaceFuzzer trials
   on the long-trials and fork-rounds fixtures and the jspider and hedc
   models (see [racefuzzer_alloc_bounds]).

   Check (also part of dune runtest):
     dune build @golden
   Regenerate (from the repository root):
     dune exec test/test_rfl_traces.exe -- --write-golden test/golden_rfl_traces.txt
   Print the measured words per step:
     dune exec test/test_rfl_traces.exe -- --words-per-step
   Print words and nanoseconds (fastest of 5 passes) per step of random
   and RaceFuzzer runs on the three fixtures and five Table 1 models:
     dune exec test/test_rfl_traces.exe -- --per-step *)

open Rf_util
open Rf_runtime
module Fuzzer = Racefuzzer.Fuzzer

(* Relative to the test's build directory when checking; the writer is
   run from the repository root. *)
let examples = ref "../examples/programs"
let fixtures = ref "fixtures"

let example_names =
  [ "bank.rfl"; "chain.rfl"; "deadlock.rfl"; "figure1.rfl"; "fork_heavy.rfl" ]

let fixture_names = [ "serve-offline.rfl"; "long-trials.rfl"; "fork-rounds.rfl" ]

let generated =
  lazy
    (let rand = Random.State.make [| 19; 2008 |] in
     List.init 40 (fun i ->
         (Printf.sprintf "gen%02d" i, QCheck.Gen.generate1 ~rand Rfl_gen.gen_program)))

(* (row name, program) pairs, in row order. *)
let programs () =
  List.map
    (fun n -> (n, Rf_lang.Lang.load_file (Filename.concat !examples n)))
    example_names
  @ List.map
      (fun n -> (n, Rf_lang.Lang.load_file (Filename.concat !fixtures n)))
      fixture_names
  @ Lazy.force generated

(* A main that prints into [buf], one line per print statement. *)
let main_of prog buf =
  Rf_lang.Lang.program
    ~print:(fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    prog

let exns (o : Outcome.t) =
  match o.Outcome.exceptions with
  | [] -> "-"
  | xs ->
      String.concat ";"
        (List.map
           (fun (x : Outcome.exn_report) ->
             Printf.sprintf "%s@%s" (Printexc.to_string x.Outcome.exn_)
               (match x.Outcome.raised_at with
               | Some s -> Site.to_string s
               | None -> "-"))
           xs)

let summary (o : Outcome.t) tr buf =
  Printf.sprintf "%d %d %d %s %s" (Rf_events.Trace.fingerprint tr) o.Outcome.steps
    o.Outcome.switches (exns o)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let random_row prog seed () =
  let buf = Buffer.create 64 in
  let o =
    Engine.run
      ~config:{ Engine.default_config with seed; record_trace = true }
      ~strategy:(Strategy.random ()) (main_of prog buf)
  in
  match o.Outcome.trace with
  | Some tr -> summary o tr buf
  | None -> assert false

let first_pair prog =
  let p1 = Fuzzer.phase1 ~seeds:[ 0 ] (Rf_lang.Lang.program ~print:ignore prog) in
  Site.Pair.Set.elements (Fuzzer.potential_pairs p1)
  |> List.map (fun p -> (Site.Pair.to_string p, p))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> function
  | [] -> None
  | (_, p) :: _ -> Some p

let racefuzzer_row prog () =
  match first_pair prog with
  | None -> "no-pair"
  | Some pair -> (
      let buf = Buffer.create 64 in
      let tr = Rf_events.Trace.create () in
      match
        Fuzzer.run_trial ~listeners:[ Rf_events.Trace.add tr ]
          ~max_steps:Engine.default_config.max_steps ~program:(main_of prog buf) pair 0
      with
      | Fuzzer.Completed t ->
          let r = t.Fuzzer.t_report in
          Printf.sprintf "%s %s hits=%d postponements=%d" (Site.Pair.to_string pair)
            (summary t.Fuzzer.t_outcome tr buf)
            r.Racefuzzer.Algo.hit_events r.Racefuzzer.Algo.postponements
      | Fuzzer.Harness_crash (e, _) -> "crash " ^ Printexc.to_string e
      | Fuzzer.Budget_exhausted _ -> "budget-exhausted")

(* Row key "<program> <seed> <strategy>" and its measurement. *)
let rows () =
  List.concat_map
    (fun (name, prog) ->
      List.map
        (fun seed -> (Printf.sprintf "%s %d random" name seed, random_row prog seed))
        [ 0; 1; 7 ]
      @ [ (Printf.sprintf "%s 0 racefuzzer" name, racefuzzer_row prog) ])
    (programs ())

let write_golden path =
  let oc = open_out path in
  output_string oc
    "# Golden RFL trace rows: <program> <seed> <strategy> <trace fingerprint> \
     <steps> <switches> <exceptions as text@site> <digest of printed output>;\n\
     # racefuzzer rows lead with the fuzzed pair and end with hit events and \
     postponements.\n";
  Printf.fprintf oc
    "# Regenerate with: dune exec test/test_rfl_traces.exe -- --write-golden %s\n"
    path;
  let rows = rows () in
  List.iter (fun (key, run) -> Printf.fprintf oc "%s %s\n" key (run ())) rows;
  close_out oc;
  List.length rows

(* Key = the first three fields, value = the rest of the line. *)
let read_golden path =
  let tbl = Hashtbl.create 256 in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            let line = String.trim line in
            (if line <> "" && line.[0] <> '#' then
               match String.split_on_char ' ' line with
               | a :: b :: c :: rest ->
                   Hashtbl.replace tbl (String.concat " " [ a; b; c ]) (String.concat " " rest)
               | _ -> ());
            go ()
      in
      go ());
  tbl

(* ------------------------------------------------------------------ *)
(* Words per engine step                                               *)

(* Minor-heap words per engine step under the random strategy on one
   domain, seeds 0-4, after one warm-up run.  Single-domain allocation is
   deterministic for a fixed binary.  Each bound is about 1.5x what the
   compiled interpreter with the engine's cached strategy view measured,
   and at most half of what the tree-walking interpreter allocated (379
   and 260 words per step), so a return to per-step environment tables or
   per-switch view lists fails here. *)
let alloc_bounds = [ ("fork_heavy.rfl", 63.); ("fork-rounds.rfl", 67.) ]

let words_per_step name =
  let dir = if name = "fork_heavy.rfl" then !examples else !fixtures in
  let main = Rf_lang.Lang.program ~print:ignore (Rf_lang.Lang.load_file (Filename.concat dir name)) in
  let run seed =
    (Engine.run ~config:{ Engine.default_config with seed } ~strategy:(Strategy.random ()) main)
      .Outcome.steps
  in
  ignore (run 0);
  let w0 = Gc.minor_words () in
  let steps = List.fold_left (fun acc seed -> acc + run seed) 0 [ 0; 1; 2; 3; 4 ] in
  (Gc.minor_words () -. w0) /. float_of_int steps

(* A fixture by file name, or a Table 1 model by workload name. *)
let program name =
  if Filename.check_suffix name ".rfl" then
    Rf_lang.Lang.program ~print:ignore (Rf_lang.Lang.load_file (Filename.concat !fixtures name))
  else (Option.get (Rf_workloads.Registry.find name)).Rf_workloads.Workload.program

(* Minor-heap words and wall nanoseconds per engine step of [run main pair
   seed] over every phase-1 pair (seed 0) of a fixture or model and seeds
   0-7, after one warm-up run. *)
let per_step name run =
  let main = program name in
  let pairs = Site.Pair.Set.elements (Fuzzer.potential_pairs (Fuzzer.phase1 ~seeds:[ 0 ] main)) in
  ignore (run main (List.hd pairs) 0);
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let steps =
    List.fold_left
      (fun acc pair ->
        List.fold_left (fun acc seed -> acc + run main pair seed) acc (List.init 8 Fun.id))
      0 pairs
  in
  let steps = float_of_int steps in
  ((Gc.minor_words () -. w0) /. steps, (Unix.gettimeofday () -. t0) *. 1e9 /. steps)

(* The three ways a fixture runs per pair: random scheduling consulted at
   every operation (phase 1's policy), random scheduling consulted only at
   synchronization and the pair's sites (a RaceFuzzer trial's policy
   without its strategy), and the RaceFuzzer trial itself. *)
let random_run policy main pair seed =
  (Engine.run
     ~config:{ Engine.default_config with seed; policy = policy pair }
     ~strategy:(Strategy.random ()) main)
    .Outcome.steps

let step_modes =
  [
    ("random Every_op", random_run (fun _ -> Engine.Every_op));
    ( "random Sync_and",
      random_run (fun pair ->
          Engine.Sync_and (Site.Set.of_list [ Site.Pair.fst pair; Site.Pair.snd pair ])) );
    ( "racefuzzer",
      fun main pair seed ->
        match
          Fuzzer.run_trial ~max_steps:Engine.default_config.max_steps ~program:main pair seed
        with
        | Fuzzer.Completed t -> t.Fuzzer.t_outcome.Outcome.steps
        | Fuzzer.Harness_crash (e, _) -> failwith ("harness crash " ^ Printexc.to_string e)
        | Fuzzer.Budget_exhausted _ -> failwith "budget exhausted" );
  ]

(* Minor-heap words per engine step of RaceFuzzer trials, measured as
   above.  On the fixtures each bound is about 1.5x what the
   allocation-free phase-2 path (unboxed PRNG state, one postponement
   core, unwatched accesses run inside the fiber) measures; the
   effect-per-access path before it allocated 74 and 81 words per step,
   so it fails here.  The models name their sites with [Site.make] on
   every operation; with the site cache they measure 41.4 and 39.6
   words per step, and a locked registry lookup per call (a key tuple, a
   closure and an option: 52.1 and 47.8) fails their bounds. *)
let racefuzzer_alloc_bounds =
  [ ("long-trials.rfl", 52.); ("fork-rounds.rfl", 40.); ("jspider", 46.); ("hedc", 43.) ]

let racefuzzer_words_per_step name = fst (per_step name (List.assoc "racefuzzer" step_modes))

let alloc_case ?(label = "") measure (name, bound) =
  Alcotest.test_case (label ^ name) `Quick (fun () ->
      let w = measure name in
      if w > bound then
        Alcotest.failf "%s%s allocates %.1f minor words per step (bound %.0f)" label name w
          bound)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--write-golden" :: path :: _ ->
      examples := "examples/programs";
      fixtures := "test/fixtures";
      let n = write_golden path in
      Printf.printf "wrote %d golden RFL trace rows to %s\n" n path
  | _ :: "--words-per-step" :: _ ->
      examples := "examples/programs";
      fixtures := "test/fixtures";
      List.iter
        (fun (name, _) -> Printf.printf "%s %.1f\n" name (words_per_step name))
        alloc_bounds;
      List.iter
        (fun (name, _) ->
          Printf.printf "racefuzzer %s %.1f\n" name (racefuzzer_words_per_step name))
        racefuzzer_alloc_bounds
  | _ :: "--per-step" :: _ ->
      fixtures := "test/fixtures";
      Printf.printf "%-18s %-16s %8s %8s\n" "fixture" "run" "words" "ns";
      List.iter
        (fun name ->
          List.iter
            (fun (mode, run) ->
              (* words are deterministic; time keeps the fastest of 5 *)
              let words, ns = per_step name run in
              let ns =
                List.fold_left (fun acc _ -> min acc (snd (per_step name run))) ns [ 2; 3; 4; 5 ]
              in
              Printf.printf "%-18s %-16s %8.1f %8.0f\n" name mode words ns)
            step_modes)
        (fixture_names @ [ "jspider"; "jigsaw"; "weblech"; "cache4j"; "hedc" ])
  | _ ->
      let golden = read_golden "golden_rfl_traces.txt" in
      Alcotest.run "golden_rfl_traces"
        [
          ( "rows",
            List.map
              (fun (key, run) ->
                Alcotest.test_case key `Quick (fun () ->
                    match Hashtbl.find_opt golden key with
                    | None -> Alcotest.failf "row %s missing from the golden file" key
                    | Some pinned -> Alcotest.(check string) key pinned (run ())))
              (rows ()) );
          ( "alloc",
            List.map (alloc_case words_per_step) alloc_bounds
            @ List.map
                (alloc_case ~label:"racefuzzer " racefuzzer_words_per_step)
                racefuzzer_alloc_bounds );
        ]
