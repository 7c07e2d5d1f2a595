(* Golden CLI rows: each row runs one `racefuzzer` command line and pins
   its exit status together with its `fingerprint:` and `confirmed:`
   lines (or, for a run that stops before printing a report, its first
   stderr line, or a digest of its whole stdout) against
   test/golden_cli.txt.  These are the configurations that exist only
   behind the command line: the worker process tier, chaos exit codes, a
   deterministic stop and its resume, the --no-degrade budget stop, model
   programs that intern sites at run time on two domains while phase 1
   streams, the bytes of a --repro-dir written by the worker tier, the
   `fuzz` budget outputs, `detect` under each detector, `corpus list
   --json` of a campaign's corpus, one `serve` cycle over that corpus
   and a fixture whose phase-1 frontier grows with --phase1-seeds (its
   stdout and ledger), --offline-detect at one and two shards (the
   serve fixture with its repro directory, a model that interns sites at
   run time on two domains, and one shard on two domains), a --budget
   campaign with --phase1-seeds, the worker rlimit and process-fault
   flags, `fuzz` and `workload` stdout, and the usage error of a
   negative count, budget or fuel.

   Check (also part of dune runtest):
     dune build @golden
   Regenerate (from the repository root):
     dune exec test/test_golden_cli.exe -- --write-golden test/golden_cli.txt *)

(* Relative to the test directory: the check runs in the test's build
   directory and the writer, started from the repository root, moves into
   test/, so a path that reaches an artifact (a repro schedule names its
   target) is the same in both.  Site files are recorded by basename, so
   the fixture path does not reach any fingerprint. *)
let cli = ref "../bin/main.exe"
let fixtures = ref "fixtures"
let examples = ref "../examples/programs"

type pin =
  | Report  (** exit status, [fingerprint:] and [confirmed:] *)
  | Stderr  (** exit status and the first stderr line *)
  | Status
      (** exit status only: an interrupted campaign's partial report
          depends on which trials finished before the stop *)
  | Report_and_repro
      (** [Report] plus a digest of the files the row's [Repro_dir]
          holds afterwards (names and contents) *)
  | Stdout  (** exit status and a digest of the whole stdout *)
  | Stdout_and_ledger
      (** [Stdout] plus a digest of the scratch corpus' serve ledger *)

(* A row's command line; [Journal] and [Corpus] stand for a per-check
   scratch journal and corpus directory shared by the rows of one check,
   so a later row can read what an earlier one wrote, and [Repro_dir]
   for a fresh per-row directory. *)
type arg =
  | A of string
  | Fixture of string
  | Example of string
  | Journal
  | Corpus
  | Repro_dir

let args = List.map (fun a -> A a)

let long_trials =
  [ A "campaign"; Fixture "long-trials.rfl" ] @ args [ "--domains"; "2"; "--trials"; "4" ]

let figure1_chaos =
  args [ "campaign"; "figure1"; "--domains"; "2"; "--trials"; "100"; "--chaos"; "--chaos-seed"; "7" ]

let fuzz_chain = [ A "fuzz"; Example "chain.rfl" ] @ args [ "--trials"; "6"; "--detector-budget"; "8" ]
let detect_figure1 name = [ A "detect"; Example "figure1.rfl"; A "--detector"; A name ]

let rows : (string * pin * arg list) list =
  [
    ("long-trials-d2", Report, long_trials);
    ("long-trials-d2-no-cutoff", Report, long_trials @ [ A "--no-cutoff" ]);
    ("figure1-chaos7-d2", Report, figure1_chaos);
    ( "figure1-chaos7-stop15",
      Status,
      figure1_chaos @ [ A "--chaos-stop-after"; A "15"; A "--log"; Journal ] );
    ("figure1-chaos7-resume", Report, figure1_chaos @ [ A "--resume"; Journal ]);
    ( "figure1-workers2",
      Report,
      args [ "campaign"; "figure1"; "--workers"; "2"; "--trials"; "50" ] );
    ( "serve-small-budget40-nodegrade",
      Stderr,
      args
        [
          "campaign"; "stress-serve-small"; "--domains"; "2"; "--trials"; "3";
          "--detector-budget"; "40"; "--no-degrade";
        ] );
    ("jspider-d2", Report, args [ "campaign"; "jspider"; "--domains"; "2"; "--trials"; "20" ]);
    ("jigsaw-d2", Report, args [ "campaign"; "jigsaw"; "--domains"; "2"; "--trials"; "10" ]);
    ( "cache4j-workers2-repro",
      Report_and_repro,
      args [ "campaign"; "cache4j"; "--workers"; "2"; "--trials"; "50"; "--repro-dir" ]
      @ [ Repro_dir ] );
    ("chain-fuzz-budget8", Stdout, fuzz_chain);
    ("chain-fuzz-budget8-nodegrade", Stdout, fuzz_chain @ [ A "--no-degrade" ]);
    ("figure1-fuzz", Stdout, [ A "fuzz"; Example "figure1.rfl"; A "--trials"; A "20" ]);
    ("figure1-detect-hybrid", Stdout, detect_figure1 "hybrid");
    ("figure1-detect-hb", Stdout, detect_figure1 "hb");
    ("figure1-detect-eraser", Stdout, detect_figure1 "eraser");
    ("figure1-detect-fasttrack", Stderr, detect_figure1 "fasttrack");
    ( "cache4j-corpus",
      Report,
      args [ "campaign"; "cache4j"; "--trials"; "20"; "--corpus" ] @ [ Corpus ] );
    ("cache4j-corpus-list-json", Stdout, [ A "corpus"; A "list"; Corpus; A "--json" ]);
    ( "cache4j-corpus-serve",
      Stdout_and_ledger,
      [ A "serve"; Corpus ]
      @ args
          [ "--cycles"; "1"; "--period"; "0"; "--domains"; "2"; "--phase1-seeds"; "2";
            "--trials"; "5"; "--target" ]
      @ [ Fixture "late-pairs.rfl" ] );
    ( "serve-offline-shards2-repro",
      Report_and_repro,
      [ A "campaign"; Fixture "serve-offline.rfl" ]
      @ args
          [
            "--trials"; "4"; "--domains"; "1"; "--offline-detect"; "--offline-shards"; "2";
            "--static-filter"; "--repro-dir";
          ]
      @ [ Repro_dir; A "--repro-fuel"; A "20" ] );
    ( "jspider-d2-shards2",
      Report,
      args
        [ "campaign"; "jspider"; "--domains"; "2"; "--trials"; "10"; "--offline-detect";
          "--offline-shards"; "2" ] );
    ( "figure1-d2-offline",
      Report,
      [ A "campaign"; Example "figure1.rfl" ]
      @ args [ "--domains"; "2"; "--trials"; "20"; "--offline-detect" ] );
    ( "cache4j-d2-budget60",
      Report,
      args
        [ "campaign"; "cache4j"; "--domains"; "2"; "--trials"; "10"; "--phase1-seeds"; "2";
          "--budget"; "60" ] );
    ( "figure1-workers2-faults",
      Report,
      args
        [
          "campaign"; "figure1"; "--workers"; "2"; "--trials"; "50"; "--worker-mem"; "4096";
          "--worker-cpu"; "600"; "--worker-deadline"; "60"; "--chaos-kill-assignment"; "3";
          "--chaos-torn-frame"; "7";
        ] );
    ("cache4j-workload", Stdout, args [ "workload"; "cache4j"; "--trials"; "5" ]);
    ("jspider-workload", Stdout, args [ "workload"; "jspider"; "--trials"; "10" ]);
    ("figure1-trials-negative", Stderr, args [ "campaign"; "figure1"; "--trials=-1" ]);
    ( "chain-fuzz-phase1-negative",
      Stderr,
      [ A "fuzz"; Example "chain.rfl"; A "--phase1-seeds=-1" ] );
    ("figure1-budget-negative", Stderr, args [ "campaign"; "figure1"; "--budget=-5" ]);
    ( "figure1-repro-fuel-negative",
      Stderr,
      args [ "campaign"; "figure1"; "--repro-fuel=-3" ] );
    ( "figure1-detector-budget-negative",
      Stderr,
      args [ "campaign"; "figure1"; "--detector-budget=-1" ] );
    (* the options are parsed before SCHEDULE is read, so any existing
       file stands in for one *)
    ( "shrink-fuel-negative",
      Stderr,
      [ A "shrink"; Example "figure1.rfl"; A "--fuel=-5" ] );
    ("figure1-workers-negative", Stderr, args [ "campaign"; "figure1"; "--workers=-1" ]);
    ( "figure1-offline-shards-negative",
      Stderr,
      args [ "campaign"; "figure1"; "--offline-detect"; "--offline-shards=-2" ] );
    ("figure1-domains-negative", Stderr, args [ "campaign"; "figure1"; "--domains=-3" ]);
  ]

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* One digest of a directory's files, names and contents, in name order. *)
let digest_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         [ f; In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all ])
  |> String.concat "\000" |> Digest.string |> Digest.to_hex

let rec remove_dir dir =
  Array.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then remove_dir p else Sys.remove p)
    (Sys.readdir dir);
  Sys.rmdir dir

(* Run one row and render its pinned values as one line. *)
let measure ~journal ~corpus (pin, args) =
  let repro_dir = Filename.temp_dir "golden_cli" ".repro" in
  let args =
    List.map
      (function
        | A a -> a
        | Fixture f -> Filename.concat !fixtures f
        | Example f -> Filename.concat !examples f
        | Journal -> journal
        | Corpus -> corpus
        | Repro_dir -> repro_dir)
      args
  in
  let out = Filename.temp_file "golden_cli" ".out" in
  let err = Filename.temp_file "golden_cli" ".err" in
  let code = Sys.command (Filename.quote_command !cli args ~stdout:out ~stderr:err) in
  let out_digest = Digest.to_hex (Digest.file out) in
  let out_lines = read_lines out and err_lines = read_lines err in
  Sys.remove out;
  Sys.remove err;
  let report () =
    List.filter_map
      (fun l ->
        if starts_with ~prefix:"fingerprint:" l || starts_with ~prefix:"confirmed:" l
        then Some (Scanf.sscanf l "%_s %s" Fun.id)
        else None)
      out_lines
  in
  let pinned =
    match pin with
    | Status -> []
    | Report -> report ()
    | Report_and_repro -> report () @ [ "repro=" ^ digest_dir repro_dir ]
    | Stdout -> [ "stdout=" ^ out_digest ]
    | Stdout_and_ledger ->
        let ledger = Filename.concat corpus "serve.ledger.jsonl" in
        [ "stdout=" ^ out_digest; "ledger=" ^ Digest.to_hex (Digest.file ledger) ]
    | Stderr -> (
        match List.filter (fun l -> l <> "") err_lines with
        | l :: _ -> [ "stderr: " ^ l ]
        | [] -> [ "stderr: -" ])
  in
  remove_dir repro_dir;
  String.concat " " (Printf.sprintf "exit=%d" code :: pinned)

(* Every row of one check, in order, sharing one scratch journal and one
   scratch corpus, neither of which exists before its first row. *)
let measure_all () =
  let journal = Filename.temp_file "golden_cli" ".jsonl" in
  Sys.remove journal;
  let corpus = Filename.temp_file "golden_cli" ".corpus" in
  Sys.remove corpus;
  let got =
    List.map (fun (name, pin, args) -> (name, measure ~journal ~corpus (pin, args))) rows
  in
  if Sys.file_exists journal then Sys.remove journal;
  if Sys.file_exists corpus then remove_dir corpus;
  got

let write_golden ~file path =
  let oc = open_out file in
  output_string oc
    "# Golden CLI rows: <row> exit=<status> [<fingerprint> <confirmed> [repro=<digest>] | stderr: <line> | stdout=<digest>].\n\
     # Rows are defined in test_golden_cli.ml; figure1-chaos7-resume resumes the\n\
     # journal of figure1-chaos7-stop15 and must end with figure1-chaos7-d2's values.\n";
  Printf.fprintf oc
    "# Regenerate with: dune exec test/test_golden_cli.exe -- --write-golden %s\n" path;
  List.iter (fun (name, got) -> Printf.fprintf oc "%s %s\n" name got) (measure_all ());
  close_out oc

let read_golden path =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | Some i ->
            Hashtbl.replace tbl (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
        | None -> ())
    (read_lines path);
  tbl

let () =
  match Array.to_list Sys.argv with
  | _ :: "--write-golden" :: path :: _ ->
      let file = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
      Sys.chdir "test";
      cli := "../_build/default/bin/main.exe";
      write_golden ~file path;
      Printf.printf "wrote %d golden CLI rows to %s\n" (List.length rows) path
  | _ ->
      let golden = read_golden "golden_cli.txt" in
      let got = lazy (measure_all ()) in
      Alcotest.run "golden_cli"
        [
          ( "rows",
            List.map
              (fun (name, _, _) ->
                Alcotest.test_case name `Quick (fun () ->
                    match Hashtbl.find_opt golden name with
                    | None -> Alcotest.failf "row %s missing from the golden file" name
                    | Some pinned ->
                        Alcotest.(check string) name pinned
                          (List.assoc name (Lazy.force got))))
              rows );
        ]
