(* Tests for atomicity-violation detection and directed scheduling (the
   third problem class of the paper's §1): the classic double-withdraw
   bank with a split check-then-act transaction. *)

open Rf_util
open Rf_runtime

let site_chk_sync = Api.site "bank:sync(check)"
let site_chk_read = Api.site "bank:read balance (check)"
let site_wd_sync = Api.site "bank:sync(withdraw)"
let site_wd_read = Api.site "bank:read balance (withdraw)"
let site_wd_write = Api.site "bank:write balance (withdraw)"

(* A bank account with lock-protected but non-atomic withdraw: the check
   and the debit live in separate critical sections. *)
let bank ?(atomic = false) ?(amount = 80) () =
  let balance = Api.Cell.make ~name:"balance" 100 in
  let l = Lock.create ~name:"account" () in
  let withdraw () =
    if atomic then
      Api.sync ~site:site_chk_sync l (fun () ->
          if Api.Cell.read ~site:site_chk_read balance >= amount then
            Api.Cell.write ~site:site_wd_write balance
              (Api.Cell.read ~site:site_wd_read balance - amount))
    else begin
      let enough =
        Api.sync ~site:site_chk_sync l (fun () ->
            Api.Cell.read ~site:site_chk_read balance >= amount)
      in
      if enough then
        (* the gap: another withdrawer can slip in here *)
        Api.sync ~site:site_wd_sync l (fun () ->
            Api.Cell.write ~site:site_wd_write balance
              (Api.Cell.read ~site:site_wd_read balance - amount))
    end
  in
  let a = Api.fork ~name:"alice" withdraw in
  let b = Api.fork ~name:"bob" withdraw in
  Api.join a;
  Api.join b;
  let final = Api.Cell.unsafe_peek balance in
  if final < 0 then Api.error (Printf.sprintf "overdraft: balance = %d" final)

(* Four withdrawers of 30 from a balance of 100 beside a depositor that
   also takes the account lock: more threads and steps than [bank], so
   postponement, relief and eviction all have work to do. *)
let busy_bank () =
  let balance = Api.Cell.make ~name:"balance" 100 in
  let l = Lock.create ~name:"account" () in
  let withdraw () =
    for _ = 1 to 2 do
      let enough =
        Api.sync ~site:site_chk_sync l (fun () ->
            Api.Cell.read ~site:site_chk_read balance >= 30)
      in
      if enough then
        Api.sync ~site:site_wd_sync l (fun () ->
            Api.Cell.write ~site:site_wd_write balance
              (Api.Cell.read ~site:site_wd_read balance - 30))
    done
  in
  let deposit () =
    for _ = 1 to 3 do
      Api.sync ~site:(Api.site "busy:sync(deposit)") l (fun () ->
          Api.Cell.write ~site:(Api.site "busy:write balance (deposit)") balance
            (Api.Cell.read ~site:(Api.site "busy:read balance (deposit)") balance + 5))
    done
  in
  let hs = List.init 4 (fun i -> Api.fork ~name:(Printf.sprintf "w%d" i) withdraw) in
  let d = Api.fork ~name:"depositor" deposit in
  List.iter Api.join hs;
  Api.join d;
  let final = Api.Cell.unsafe_peek balance in
  if final < 0 then Api.error (Printf.sprintf "overdraft: balance = %d" final)

(* ------------------------------------------------------------------ *)
(* Phase 1                                                             *)

let test_phase1_finds_split_transaction () =
  let cands = Racefuzzer.Atom_fuzzer.phase1 ~seeds:(List.init 10 Fun.id) (fun () -> bank ()) in
  Alcotest.(check bool) "candidates found" true (cands <> []);
  Alcotest.(check bool) "targets the withdraw re-entry" true
    (List.exists
       (fun (c : Rf_detect.Atomicity.candidate) ->
         Site.equal c.Rf_detect.Atomicity.second_acquire site_wd_sync
         && Site.equal c.Rf_detect.Atomicity.interferer_site site_wd_write)
       cands)

let test_phase1_silent_on_atomic_version () =
  let cands =
    Racefuzzer.Atom_fuzzer.phase1 ~seeds:(List.init 10 Fun.id) (fun () -> bank ~atomic:true ())
  in
  Alcotest.(check (list string)) "no candidates" []
    (List.map
       (fun c -> Fmt.str "%a" Rf_detect.Atomicity.pp_candidate c)
       cands)

let test_race_detectors_silent_on_bank () =
  (* the point of atomicity checking: the split bank is perfectly
     lock-disciplined, so no race detector reports anything *)
  let hy = Rf_detect.Detector.hybrid () in
  let er = Rf_detect.Detector.eraser () in
  List.iter
    (fun seed ->
      ignore
        (Engine.run
           ~config:{ Engine.default_config with seed }
           ~listeners:[ Rf_detect.Detector.feed hy; Rf_detect.Detector.feed er ]
           ~strategy:(Strategy.random ()) (fun () -> bank ())))
    (List.init 10 Fun.id);
  Alcotest.(check int) "hybrid silent" 0 (Rf_detect.Detector.race_count hy);
  Alcotest.(check int) "eraser silent" 0 (Rf_detect.Detector.race_count er)

(* ------------------------------------------------------------------ *)
(* Phase 2                                                             *)

let analyze ?(trials = 60) program =
  Racefuzzer.Atom_fuzzer.analyze
    ~phase1_seeds:(List.init 10 Fun.id)
    ~seeds_per_candidate:(List.init trials Fun.id)
    program

let test_fuzzer_realizes_violation () =
  let results = analyze (fun () -> bank ()) in
  Alcotest.(check bool) "some candidate real" true
    (List.exists Racefuzzer.Atom_fuzzer.is_real results);
  let best =
    List.fold_left
      (fun acc r -> max acc r.Racefuzzer.Atom_fuzzer.ac_probability)
      0.0 results
  in
  Alcotest.(check bool)
    (Printf.sprintf "high violation probability (%.2f)" best)
    true (best > 0.5)

let test_fuzzer_surfaces_overdraft () =
  let results = analyze (fun () -> bank ()) in
  Alcotest.(check bool) "overdraft error reached" true
    (List.exists Racefuzzer.Atom_fuzzer.is_harmful results)

let test_fuzzer_beats_undirected_random () =
  let undirected =
    Racefuzzer.Fuzzer.baseline
      ~seeds:(List.init 60 Fun.id)
      ~make_strategy:Strategy.random (fun () -> bank ())
  in
  let results = analyze (fun () -> bank ()) in
  let directed_errors =
    List.fold_left
      (fun acc r -> max acc r.Racefuzzer.Atom_fuzzer.ac_error_trials)
      0 results
  in
  Alcotest.(check bool)
    (Printf.sprintf "directed (%d/60) >= undirected (%d/60)" directed_errors
       undirected.Racefuzzer.Fuzzer.b_error_trials)
    true
    (directed_errors >= undirected.Racefuzzer.Fuzzer.b_error_trials);
  Alcotest.(check bool) "directed finds it at all" true (directed_errors > 0)

let test_fuzzer_rejects_atomic_version () =
  let results = analyze (fun () -> bank ~atomic:true ()) in
  Alcotest.(check bool) "no candidates to confirm" true (results = [])

let test_violation_seed_replays () =
  let results = analyze (fun () -> bank ()) in
  match List.find_opt Racefuzzer.Atom_fuzzer.is_real results with
  | None -> Alcotest.fail "no real candidate"
  | Some r -> (
      match r.Racefuzzer.Atom_fuzzer.ac_seed with
      | None -> Alcotest.fail "no seed"
      | Some seed ->
          let again =
            Racefuzzer.Atom_fuzzer.fuzz_candidate ~seeds:[ seed ] ~program:(fun () -> bank ())
              r.Racefuzzer.Atom_fuzzer.ac_candidate
          in
          Alcotest.(check int) "replayed violation" 1
            again.Racefuzzer.Atom_fuzzer.ac_violation_trials)

(* Exact per-seed outcomes, pinned: for each candidate (named by its
   second acquire and interfering write; candidates that share both
   drive the same strategy and print one line) and seeds 0-19, what [fuzz_candidate] credits the seed with ("V"
   violation, "E" violation with the overdraft, "-" neither), then the
   strategy's hits, [apostponed] and [aevictions] and the run's steps.
   Without a timeout argument the default postpone timeout applies; a
   timeout of 2 steps makes livelock relief fire.  Any change to the
   postponement bookkeeping or to the PRNG draws it makes shows up here. *)
let atomicity_outcomes ?postpone_timeout program =
  let module A = Racefuzzer.Atom_fuzzer in
  List.map
    (fun (c : Rf_detect.Atomicity.candidate) ->
      let watch =
        Site.Set.of_list
          [ c.Rf_detect.Atomicity.second_acquire; c.Rf_detect.Atomicity.interferer_site ]
      in
      let seeds =
        List.init 20 (fun seed ->
            let r = A.fuzz_candidate ~seeds:[ seed ] ~program c in
            let report = A.fresh_report () in
            let o =
              Engine.run
                ~config:{ Engine.default_config with seed; policy = Engine.Sync_and watch }
                ~strategy:(A.strategy ?postpone_timeout ~candidate:c ~report ())
                program
            in
            Printf.sprintf "%s%d/%d/%d/%d"
              (if r.A.ac_error_trials = 1 then "E"
               else if r.A.ac_violation_trials = 1 then "V"
               else "-")
              (List.length report.A.ahits) report.A.apostponed report.A.aevictions
              o.Outcome.steps)
      in
      Printf.sprintf "%s -> %s %s"
        (Site.label c.Rf_detect.Atomicity.second_acquire)
        (Site.label c.Rf_detect.Atomicity.interferer_site)
        (String.concat " " seeds))
    (A.phase1 ~seeds:(List.init 10 Fun.id) program)
  |> List.sort_uniq compare

let test_pinned_outcomes () =
  let check name ?postpone_timeout program expected =
    Alcotest.(check (list string)) name expected
      (atomicity_outcomes ?postpone_timeout program)
  in
  check "bank" (fun () -> bank ())
    [
      "bank:sync(withdraw) -> bank:write balance (withdraw) E1/2/2/21 E1/2/2/21 E1/2/2/21 E1/2/2/21 E1/2/2/21 \
       E1/2/2/21 E1/2/2/21 E1/2/2/21 E1/2/2/21 E1/2/2/21 \
       E1/2/2/21 E1/2/2/21 E1/2/2/21 E1/2/2/21 E1/2/2/21 \
       E1/2/2/21 E1/2/2/21 E1/2/2/21 E1/2/2/21 E1/2/2/21";
    ];
  check "bank, timeout 2" ~postpone_timeout:(Some 2) (fun () -> bank ())
    [
      "bank:sync(withdraw) -> bank:write balance (withdraw) E1/4/2/21 E1/4/2/21 E1/4/2/21 E1/4/2/21 E1/3/2/21 \
       E1/3/2/21 E1/4/2/21 E1/3/2/21 E1/4/2/21 E1/3/2/21 \
       E1/3/2/21 E1/4/2/21 E1/3/2/21 E1/3/2/21 E1/4/2/21 \
       E1/3/2/21 E1/3/2/21 E1/3/2/21 E1/4/2/21 E1/4/2/21";
    ];
  check "busy bank" busy_bank
    [
      "bank:sync(check) -> bank:write balance (withdraw) V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 \
       V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 \
       V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 \
       V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64";
      "bank:sync(check) -> busy:write balance (deposit) V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 \
       V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 \
       V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 \
       V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64 V3/8/8/64";
      "bank:sync(withdraw) -> bank:write balance (withdraw) E5/6/6/76 E5/6/6/76 E5/6/6/76 E5/6/6/76 E5/6/6/76 \
       E5/6/6/76 E5/6/6/76 E5/6/6/76 E5/6/6/76 E5/6/6/76 \
       E5/6/6/76 E5/6/6/76 E4/5/5/72 E5/6/6/76 E4/5/5/72 \
       E5/6/6/76 E5/6/6/76 E5/6/6/76 E4/5/5/72 E5/6/6/76";
      "bank:sync(withdraw) -> busy:write balance (deposit) E3/6/6/76 E3/5/5/72 E3/6/6/76 E2/6/6/76 E3/6/6/76 \
       E3/5/5/72 E3/6/6/76 E3/6/6/76 E3/6/6/76 E3/5/5/72 \
       E3/6/6/76 E3/6/6/76 E3/6/6/76 E2/5/5/72 E3/6/6/76 \
       -0/6/6/76 E3/6/6/76 E3/6/6/76 E3/6/6/76 E3/5/5/72";
      "busy:sync(deposit) -> bank:write balance (withdraw) -0/3/3/64 E2/3/3/68 E4/3/3/72 V3/3/3/64 E3/3/3/68 \
       E5/3/3/76 E2/3/3/72 E4/3/3/72 V2/3/3/64 -0/3/3/64 \
       E3/3/3/72 E1/3/3/68 E4/3/3/72 E4/3/3/68 E3/3/3/72 \
       E4/3/3/68 -0/3/3/72 E3/3/3/68 E3/3/3/72 -0/3/3/72";
    ];
  check "busy bank, timeout 5" ~postpone_timeout:(Some 5) busy_bank
    [
      "bank:sync(check) -> bank:write balance (withdraw) V2/20/8/64 V3/26/8/64 V2/25/8/64 V3/25/8/64 V3/26/8/64 \
       V3/20/8/64 V3/23/8/64 V3/26/8/64 V3/24/8/64 V3/25/8/64 \
       V3/24/8/64 V3/27/8/64 V3/26/8/64 V3/24/8/64 V3/24/8/64 \
       V3/25/8/64 V3/23/8/64 V3/20/8/64 V3/25/8/64 V3/26/8/64";
      "bank:sync(check) -> busy:write balance (deposit) V1/25/8/64 V2/26/8/64 V2/23/8/64 V3/21/8/64 V3/25/8/64 \
       V0/20/8/64 V3/26/8/64 V2/25/8/64 V3/27/8/64 V2/23/8/64 \
       V2/27/8/64 V3/26/8/64 V2/24/8/64 V1/23/8/64 V2/24/8/64 \
       V2/24/8/64 V2/24/8/64 V1/22/8/64 V2/23/8/64 V3/25/8/64";
      "bank:sync(withdraw) -> bank:write balance (withdraw) E4/25/6/76 E4/19/6/76 E4/20/6/76 E4/12/5/72 E5/20/6/76 \
       E5/27/6/76 E4/22/6/76 E4/19/6/76 E4/21/6/76 E2/14/5/72 \
       E3/17/5/72 E4/22/6/76 E3/15/5/72 E4/15/5/72 E4/24/6/76 \
       E4/20/6/76 E5/21/6/76 E4/18/6/76 E3/13/5/72 E4/20/6/76";
      "bank:sync(withdraw) -> busy:write balance (deposit) E1/23/6/76 E2/20/6/76 E2/21/6/76 E1/19/6/76 E1/23/6/76 \
       E3/21/6/76 E3/24/6/76 E1/18/6/76 E3/16/5/72 E2/20/6/76 \
       E2/25/6/76 E3/20/6/76 E3/21/6/76 E2/18/6/76 E2/20/6/76 \
       -0/15/6/76 E2/17/6/76 E1/21/6/76 E2/13/5/72 E2/22/6/76";
      "busy:sync(deposit) -> bank:write balance (withdraw) -0/3/3/64 E0/5/3/68 E3/6/3/72 V2/5/3/68 E1/4/3/68 \
       E2/7/3/68 E1/5/3/72 E1/5/3/76 V1/6/3/64 -0/4/3/64 \
       E1/4/3/72 E1/4/3/68 E1/5/3/76 E3/7/3/72 E0/4/3/72 \
       E2/5/3/68 -0/4/3/72 E1/6/3/68 E2/5/3/72 -0/4/3/72";
    ]

let () =
  Alcotest.run "rf_atomicity"
    [
      ( "phase1",
        [
          Alcotest.test_case "finds split transaction" `Quick
            test_phase1_finds_split_transaction;
          Alcotest.test_case "silent on atomic version" `Quick
            test_phase1_silent_on_atomic_version;
          Alcotest.test_case "race detectors silent" `Quick
            test_race_detectors_silent_on_bank;
        ] );
      ( "phase2",
        [
          Alcotest.test_case "realizes violation" `Quick test_fuzzer_realizes_violation;
          Alcotest.test_case "surfaces overdraft" `Quick test_fuzzer_surfaces_overdraft;
          Alcotest.test_case "beats undirected" `Quick
            test_fuzzer_beats_undirected_random;
          Alcotest.test_case "rejects atomic version" `Quick
            test_fuzzer_rejects_atomic_version;
          Alcotest.test_case "seed replays" `Quick test_violation_seed_replays;
          Alcotest.test_case "pinned per-seed outcomes" `Quick test_pinned_outcomes;
        ] );
    ]
