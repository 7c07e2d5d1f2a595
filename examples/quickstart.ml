(* Quickstart: find, confirm, and replay a data race in an embedded model
   program — the whole RaceFuzzer pipeline in ~60 lines.

   Run with:  dune exec examples/quickstart.exe *)

open Rf_util
open Rf_runtime

(* A model program: a bank with a racy transfer. Statements that touch
   shared state name their site — that's the statement granularity at
   which races are reported. *)
let site = Api.site

let bank_program () =
  let balance = Api.Cell.make ~name:"balance" 100 in
  let audit_lock = Lock.create ~name:"audit" () in
  let log = Api.Cell.make ~name:"audit_log" 0 in
  let deposit =
    Api.fork ~name:"deposit" (fun () ->
        (* unsynchronized read-modify-write: the bug *)
        let b = Api.Cell.read ~site:(site "deposit:read balance") balance in
        Api.Cell.write ~site:(site "deposit:write balance") balance (b + 50);
        Api.sync audit_lock (fun () ->
            Api.Cell.update ~rsite:(site "deposit:log r") ~wsite:(site "deposit:log w")
              log (fun v -> v + 1)))
  in
  let withdraw =
    Api.fork ~name:"withdraw" (fun () ->
        let b = Api.Cell.read ~site:(site "withdraw:read balance") balance in
        if b >= 30 then
          Api.Cell.write ~site:(site "withdraw:write balance") balance (b - 30);
        Api.sync audit_lock (fun () ->
            Api.Cell.update ~rsite:(site "withdraw:log r")
              ~wsite:(site "withdraw:log w") log (fun v -> v + 1)))
  in
  Api.join deposit;
  Api.join withdraw;
  (* both updates applied iff no lost update *)
  let final = Api.Cell.unsafe_peek balance in
  if final <> 120 then Api.error (Printf.sprintf "money corrupted: %d" final)

let () =
  Fmt.pr "== RaceFuzzer quickstart ==@.@.";
  (* Phase 1 + phase 2 in one call: a campaign on one domain, every
     trial of every pair. *)
  let analysis =
    (Rf_campaign.Campaign.run
       {
         Rf_campaign.Campaign.default_config with
         domains = 1;
         seeds_per_pair = List.init 50 Fun.id;
         cutoff = false;
       }
       bank_program)
      .Rf_campaign.Campaign.analysis
  in
  let potential = Racefuzzer.Fuzzer.potential_pairs analysis.Racefuzzer.Fuzzer.a_phase1 in
  Fmt.pr "phase 1 (hybrid detection): %d potential racing pair(s)@."
    (Site.Pair.Set.cardinal potential);
  List.iter
    (fun (r : Racefuzzer.Fuzzer.pair_result) ->
      Fmt.pr "  %a -> %s@." Site.Pair.pp r.Racefuzzer.Fuzzer.pr_pair
        (if Racefuzzer.Fuzzer.is_harmful r then "REAL and HARMFUL"
         else if Racefuzzer.Fuzzer.is_real r then "real (benign)"
         else "false alarm"))
    analysis.Racefuzzer.Fuzzer.results;
  (* Replay the first harmful schedule, for debugging. *)
  match
    List.find_opt Racefuzzer.Fuzzer.is_harmful analysis.Racefuzzer.Fuzzer.results
  with
  | None -> Fmt.pr "@.no harmful race found@."
  | Some r ->
      let seed = Option.get r.Racefuzzer.Fuzzer.error_seed in
      Fmt.pr "@.replaying the lost-update schedule (seed %d):@." seed;
      let outcome, report =
        Racefuzzer.Fuzzer.replay ~seed ~program:bank_program
          r.Racefuzzer.Fuzzer.pr_pair
      in
      List.iter
        (fun h -> Fmt.pr "  %a@." Racefuzzer.Algo.pp_hit h)
        (Racefuzzer.Algo.hits report);
      List.iter
        (fun (x : Rf_runtime.Outcome.exn_report) ->
          Fmt.pr "  uncaught in %s: %s@." x.Rf_runtime.Outcome.xthread
            (Printexc.to_string x.Rf_runtime.Outcome.exn_))
        outcome.Rf_runtime.Outcome.exceptions
