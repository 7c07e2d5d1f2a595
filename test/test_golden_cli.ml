(* Golden CLI rows: each row runs one `racefuzzer campaign` command line
   and pins its exit status together with its `fingerprint:` and
   `confirmed:` lines (or, for a run that stops before printing a report,
   its first stderr line) against test/golden_cli.txt.  These are the
   configurations that exist only behind the command line: the worker
   process tier, chaos exit codes, a deterministic stop and its resume,
   the --no-degrade budget stop, model programs that intern sites at run
   time on two domains while phase 1 streams, and the bytes of a
   --repro-dir written by the worker tier.

   Check (also part of dune runtest):
     dune build @golden
   Regenerate (from the repository root):
     dune exec test/test_golden_cli.exe -- --write-golden test/golden_cli.txt *)

(* Relative to the test's build directory when checking; the writer is
   run from the repository root.  Site files are recorded by basename, so
   the fixture path does not reach any fingerprint. *)
let cli = ref "../bin/main.exe"
let fixtures = ref "fixtures"

type pin =
  | Report  (** exit status, [fingerprint:] and [confirmed:] *)
  | Stderr  (** exit status and the first stderr line *)
  | Status
      (** exit status only: an interrupted campaign's partial report
          depends on which trials finished before the stop *)
  | Report_and_repro
      (** [Report] plus a digest of the files the row's [Repro_dir]
          holds afterwards (names and contents) *)

(* A row's command line; [Journal] stands for a per-check scratch
   journal shared by the rows of one check, so a later row can resume
   what an earlier one wrote, and [Repro_dir] for a fresh per-row
   directory. *)
type arg = A of string | Fixture of string | Journal | Repro_dir

let args = List.map (fun a -> A a)

let long_trials =
  [ A "campaign"; Fixture "long-trials.rfl" ] @ args [ "--domains"; "2"; "--trials"; "4" ]

let figure1_chaos =
  args [ "campaign"; "figure1"; "--domains"; "2"; "--trials"; "100"; "--chaos"; "--chaos-seed"; "7" ]

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

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Run one row and render its pinned values as one line. *)
let measure ~journal (pin, args) =
  let repro_dir = Filename.temp_dir "golden_cli" ".repro" in
  let args =
    List.map
      (function
        | A a -> a
        | Fixture f -> Filename.concat !fixtures f
        | Journal -> journal
        | Repro_dir -> repro_dir)
      args
  in
  let out = Filename.temp_file "golden_cli" ".out" in
  let err = Filename.temp_file "golden_cli" ".err" in
  let code = Sys.command (Filename.quote_command !cli args ~stdout:out ~stderr:err) in
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
    | Stderr -> (
        match List.filter (fun l -> l <> "") err_lines with
        | l :: _ -> [ "stderr: " ^ l ]
        | [] -> [ "stderr: -" ])
  in
  remove_dir repro_dir;
  String.concat " " (Printf.sprintf "exit=%d" code :: pinned)

(* Every row of one check, in order, sharing one scratch journal. *)
let measure_all () =
  let journal = Filename.temp_file "golden_cli" ".jsonl" in
  Sys.remove journal;
  let got = List.map (fun (name, pin, args) -> (name, measure ~journal (pin, args))) rows in
  if Sys.file_exists journal then Sys.remove journal;
  got

let write_golden path =
  let oc = open_out path in
  output_string oc
    "# Golden CLI rows: <row> exit=<status> [<fingerprint> <confirmed> [repro=<digest>] | stderr: <line>].\n\
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
      cli := "_build/default/bin/main.exe";
      fixtures := "test/fixtures";
      write_golden path;
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
