(* The four benchmark workloads: CLI flags, inputs, and known answers.

   Sizes are set so one campaign takes a few seconds on a 2-core
   machine, which lets a 30-second run summarize several campaigns.
   Every run stays within 2 domains or 2 worker processes. *)

type opts = {
  trials : int;  (** --trials *)
  domains : int;  (** --domains (ignored with workers) *)
  workers : int;  (** --workers; 0 = in-process domains *)
  cutoff : bool;  (** false adds --no-cutoff *)
  offline_shards : int option;  (** --offline-detect --offline-shards N *)
  static_filter : bool;
  repro_fuel : int option;  (** --repro-dir with --repro-fuel N *)
}

let phase1_seeds = List.init 5 Fun.id (* the CLI's --phase1-seeds default *)

let cli_args o ~repro_dir =
  [ "--trials"; string_of_int o.trials ]
  @ (if o.workers > 0 then [ "--workers"; string_of_int o.workers ]
     else [ "--domains"; string_of_int o.domains ])
  @ (if o.cutoff then [] else [ "--no-cutoff" ])
  @ (match o.offline_shards with
    | Some n -> [ "--offline-detect"; "--offline-shards"; string_of_int n ]
    | None -> [])
  @ (if o.static_filter then [ "--static-filter" ] else [])
  @
  match o.repro_fuel with
  | Some f -> [ "--repro-dir"; repro_dir; "--repro-fuel"; string_of_int f ]
  | None -> []

(* Known answers of one target. *)
type expect =
  | Planted of Gen.expected  (** generated program: exact pair sets *)
  | Suite of { min_real : int; harmful : string option }
      (** paper-suite: a lower bound on confirmed-real pairs and the
          documented harmful pair, from expected/paper-suite.txt *)

type target = { arg : string;  (** the CLI TARGET *) expect : expect }

type t = {
  name : string;
  opts : smoke:bool -> opts;
  targets : data:string -> work:string -> seed:int -> smoke:bool -> target list;
}

(* ------------------------------------------------------------------ *)
(* paper-suite                                                         *)

(* expected/paper-suite.txt: "<target> <min-real> [<site> | <site>]". *)
let read_suite path =
  let ic = open_in_bin path in
  let rows = ref [] in
  let malformed l = failwith (Printf.sprintf "%s: malformed line %S" path l) in
  let word s =
    match String.index_opt s ' ' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.trim (String.sub s i (String.length s - i)))
  in
  (try
     while true do
       let l = String.trim (input_line ic) in
       if l <> "" && l.[0] <> '#' then begin
         let name, rest = word l in
         let min_real, pair = word rest in
         let harmful =
           if pair = "" then None
           else
             match Gen.around pair " | " with
             | Some (a, b) -> Some (Gen.pair_key a b)
             | None -> malformed l
         in
         match int_of_string_opt min_real with
         | Some m -> rows := (name, m, harmful) :: !rows
         | None -> malformed l
       end
     done
   with End_of_file -> close_in ic);
  List.rev !rows

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The smoke suite keeps targets whose known answers hold at 10 trials. *)
let smoke_suite = [ "figure1.rfl"; "figure2[k=50]"; "cache4j"; "LinkedList" ]

(* The 16 Table 1 and figure programs on the worker-process tier: many
   short trials, early cutoff, and a repro pass over every harmful pair.
   figure1 runs from its RFL source, so the suite also goes through the
   RFL front end and the static builder once. *)
let paper_suite =
  {
    name = "paper-suite";
    opts =
      (fun ~smoke ->
        {
          trials = (if smoke then 10 else 50);
          domains = 1;
          workers = 2;
          cutoff = true;
          offline_shards = None;
          static_filter = false;
          repro_fuel = Some 400;
        });
    targets =
      (fun ~data ~work:_ ~seed ~smoke ->
        let rows = read_suite (Filename.concat data "expected/paper-suite.txt") in
        let rows = if smoke then List.filter (fun (n, _, _) -> List.mem n smoke_suite) rows else rows in
        (* fixed input: the seed only permutes the order targets run in *)
        let rows = Array.to_list (Gen.shuffle (Gen.rng seed 0) (Array.of_list rows)) in
        List.map
          (fun (name, min_real, harmful) ->
            let local = Filename.concat (Filename.concat data "programs") name in
            {
              arg = (if Sys.file_exists local then local else name);
              expect = Suite { min_real; harmful };
            })
          rows);
  }

(* ------------------------------------------------------------------ *)
(* Generated workloads.  No cutoff, so every seed runs exactly
   pairs x trials trials and the work per campaign is fixed. *)

let generated ~name ~opts make =
  {
    name;
    opts;
    targets =
      (fun ~data:_ ~work ~seed ~smoke ->
        let p : Gen.program = make ~smoke ~seed in
        let path = Filename.concat work p.Gen.file in
        write_file path p.Gen.source;
        [ { arg = path; expect = Planted p.Gen.expected } ]);
  }

let inline_opts ~trials ~domains =
  {
    trials;
    domains;
    workers = 0;
    cutoff = false;
    offline_shards = None;
    static_filter = false;
    repro_fuel = None;
  }

(* Joined rounds widen the vector clocks, so hybrid phase-1 detection
   is most of the wall. *)
let fork_rounds =
  generated ~name:"fork-rounds"
    ~opts:(fun ~smoke -> inline_opts ~trials:(if smoke then 4 else 20) ~domains:1)
    (fun ~smoke ~seed ->
      if smoke then Gen.fork_rounds ~rounds:2 ~threads:4 ~iters:4 ~span:2 ~seed
      else Gen.fork_rounds ~rounds:4 ~threads:20 ~iters:12 ~span:2 ~seed)

(* The only workload on record-then-detect (2 offline shards) and the
   static filter; many locations, so detector memory shows.  The repro
   fuel is low because each oracle run replays a whole server run. *)
let serve_offline =
  generated ~name:"serve-offline"
    ~opts:(fun ~smoke ->
      {
        trials = (if smoke then 4 else 10);
        domains = 1;
        workers = 0;
        cutoff = false;
        offline_shards = Some 2;
        static_filter = true;
        repro_fuel = Some (if smoke then 10 else 20);
      })
    (fun ~smoke ~seed ->
      if smoke then Gen.serve_offline ~workers:4 ~reqs:24 ~stride:20 ~gens:4 ~seed
      else Gen.serve_offline ~workers:16 ~reqs:96 ~stride:88 ~gens:4 ~seed)

(* Long uniform trials on 2 in-process domains: engine stepping and the
   RaceFuzzer strategy dominate. *)
let long_trials =
  generated ~name:"long-trials"
    ~opts:(fun ~smoke -> inline_opts ~trials:(if smoke then 4 else 30) ~domains:2)
    (fun ~smoke ~seed ->
      if smoke then Gen.long_trials ~threads:4 ~iters:50 ~seed
      else Gen.long_trials ~threads:8 ~iters:1000 ~seed)

let all = [ paper_suite; fork_rounds; serve_offline; long_trials ]
let find name = List.find_opt (fun w -> w.name = name) all
