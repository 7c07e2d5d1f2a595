(* Golden campaign rows: each row runs one campaign configuration
   in-process through Campaign.run and pins its fingerprint, confirmed
   fingerprint, phase-1 potential-pair count and phase 1's detector
   counters (live state entries, memory events) against
   test/golden_campaigns.txt.  A change that moves any of them fails
   here, so the behavioural contract of a refactor is a reviewed diff of
   that one file.

   Check (also part of dune runtest):
     dune build @golden
   Regenerate (from the repository root):
     dune exec test/test_golden.exe -- --write-golden test/golden_campaigns.txt *)

open Rf_util
module Fuzzer = Racefuzzer.Fuzzer
module Campaign = Rf_campaign.Campaign
module Governor = Rf_resource.Governor
module W = Rf_workloads

let seeds n = List.init n Fun.id

(* Relative to the test's build directory when checking; the writer is
   run from the repository root. *)
let examples = ref "../examples/programs"
let fixtures = ref "fixtures"

(* A target resolves as on the command line: a built-in workload with its
   static model, or an RFL file under examples/programs with the model
   derived from its source. *)
let target name =
  match W.Registry.find name with
  | Some w -> (w.W.Workload.program, w.W.Workload.static)
  | None ->
      let prog = Rf_lang.Lang.load_file (Filename.concat !examples name) in
      (Rf_lang.Lang.program ~print:ignore prog, Some (Rf_static.Static.of_program prog))

(* Each row mirrors a `campaign TARGET` command line: cutoff on, five
   phase-1 seeds and the target's static model unless the row says
   otherwise. *)
let campaign ?(domains = 2) ?(phase1_seeds = seeds 5) ~trials ?detector_budget
    ?(no_degrade = false) ?(static_filter = false) ?(offline_shards = 1) ?chaos name
    () =
  let program, static = target name in
  Campaign.run
    {
      Campaign.default_config with
      domains;
      phase1_seeds;
      seeds_per_pair = seeds trials;
      detector_budget;
      no_degrade;
      static;
      static_filter;
      offline_shards;
      chaos;
    }
    program

(* Site-interning order: campaign fingerprints print and sort pairs by
   site id, and ids are handed out in first-interned order.  This row
   compiles the serve-offline fixture before its static model is built,
   as the CLI does, so the ids come from the order in which phase 1 first
   executes each site, not from the order of the source.  No other row
   may touch this fixture's sites, or the ids would already be fixed. *)
let serve_compiled_first () =
  let prog = Rf_lang.Lang.load_file (Filename.concat !fixtures "serve-offline.rfl") in
  let program = Rf_lang.Lang.program ~print:ignore prog in
  let static = Rf_static.Static.of_program prog in
  Campaign.run
    {
      Campaign.default_config with
      domains = 1;
      cutoff = false;
      seeds_per_pair = seeds 5;
      static = Some static;
      static_filter = true;
      offline_shards = 2;
    }
    program

(* Site ids when phase 1 and phase 2 overlap (fixtures/late-pairs.rfl,
   also a target of the serve CLI row): no static model interns this
   program's sites, so each is interned by the first execution that
   reaches it.  Who takes the lock first decides which branch writes, so
   phase-1 seed 0 sees 7 of the 11 pairs and later seeds the rest.  The
   pair on [a] is found first, and every thread then spins before the
   branches, so phase-2 trials of that pair reach the branches long
   before phase 1 does, often the other way round.  The ids, and with
   them pair orientation and order, must still follow phase 1 alone. *)
let late_pairs_unmodelled () =
  let prog = Rf_lang.Lang.load_file (Filename.concat !fixtures "late-pairs.rfl") in
  Campaign.run
    { Campaign.default_config with domains = 2; cutoff = false; seeds_per_pair = seeds 4 }
    (Rf_lang.Lang.program ~print:ignore prog)

let rows : (string * (unit -> Campaign.result)) list =
  [
    ("figure1-d1", campaign ~domains:1 ~trials:100 "figure1");
    ("figure1-d2", campaign ~trials:100 "figure1");
    ("figure2-k50-budget50", campaign ~trials:30 ~detector_budget:50 "figure2[k=50]");
    ("cache4j-static-filter", campaign ~trials:50 ~static_filter:true "cache4j");
    ("serve-small-inline", campaign ~trials:10 "stress-serve-small");
    ( "serve-small-offline2",
      campaign ~trials:10 ~offline_shards:2 "stress-serve-small" );
    ( "serve-small-budget40",
      campaign ~trials:3 ~detector_budget:40 "stress-serve-small" );
    ( "serve-small-budget40-nodegrade",
      campaign ~trials:3 ~detector_budget:40 ~no_degrade:true
        "stress-serve-small" );
    ( "serve-small-budget40-offline2",
      campaign ~trials:3 ~detector_budget:40 ~offline_shards:2
        "stress-serve-small" );
    ( "figure1-chaos7",
      campaign ~trials:100 ~chaos:(Rf_campaign.Chaos.default 7) "figure1" );
    ("deadlock-rfl", campaign ~trials:50 "deadlock.rfl");
    ( "fork-heavy-phase1",
      campaign ~domains:1 ~phase1_seeds:[ 0 ] ~trials:0 "fork_heavy.rfl" );
    ("serve-fixture-compiled-first", serve_compiled_first);
    ("late-pairs-unmodelled-d2", late_pairs_unmodelled);
  ]

(* One row's pinned values, as one line of the golden file. *)
let measure run =
  match run () with
  | exception Governor.Budget_stop trigger ->
      "budget-stop " ^ Governor.trigger_to_string trigger
  | (r : Campaign.result) ->
      let a = r.Campaign.analysis in
      let p1 = a.Fuzzer.a_phase1 in
      let st = p1.Fuzzer.p1_stats in
      Printf.sprintf "%s %s %d %d %d" (Campaign.fingerprint a)
        (Campaign.confirmed_fingerprint a)
        (Site.Pair.Set.cardinal (Fuzzer.potential_pairs p1))
        st.Rf_detect.Detector.st_entries st.Rf_detect.Detector.st_mem_events

let write_golden path =
  let oc = open_out path in
  output_string oc
    "# Golden campaign rows: <row> <fingerprint> <confirmed> <potential> \
     <p1 entries> <p1 mem events>\n\
     # (or <row> budget-stop <trigger>).  Rows are defined in test_golden.ml.\n";
  Printf.fprintf oc
    "# Regenerate with: dune exec test/test_golden.exe -- --write-golden %s\n"
    path;
  List.iter (fun (name, run) -> Printf.fprintf oc "%s %s\n" name (measure run)) rows;
  close_out oc

let read_golden path =
  let ic = open_in path in
  let tbl = Hashtbl.create 16 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line ' ' with
         | Some i ->
             Hashtbl.replace tbl (String.sub line 0 i)
               (String.sub line (i + 1) (String.length line - i - 1))
         | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let () =
  match Array.to_list Sys.argv with
  | _ :: "--write-golden" :: path :: _ ->
      examples := "examples/programs";
      fixtures := "test/fixtures";
      write_golden path;
      Printf.printf "wrote %d golden campaign rows to %s\n" (List.length rows) path
  | _ ->
      let golden = read_golden "golden_campaigns.txt" in
      Alcotest.run "golden_campaigns"
        [
          ( "rows",
            List.map
              (fun (name, run) ->
                Alcotest.test_case name `Quick (fun () ->
                    match Hashtbl.find_opt golden name with
                    | None -> Alcotest.failf "row %s missing from the golden file" name
                    | Some pinned -> Alcotest.(check string) name pinned (measure run)))
              rows );
        ]
