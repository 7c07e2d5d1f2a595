(* The paper's §5.3 JDK bug, reproduced end to end: calling
   l1.containsAll(l2) and mutating l2 concurrently on *synchronized*
   LinkedLists throws ConcurrentModificationException /
   NoSuchElementException, because AbstractCollection's containsAll
   iterates its argument without holding the argument's lock.

   Run with:  dune exec examples/collections_race.exe *)

open Rf_util
open Rf_runtime
open Rf_collections

let program () =
  let l1 = Collections.synchronized_list (Linked_list.as_coll (Linked_list.create ())) in
  let l2 = Collections.synchronized_list (Linked_list.as_coll (Linked_list.create ())) in
  for i = 1 to 3 do
    ignore (l1.Jcoll.add i);
    ignore (l2.Jcoll.add (i * 10))
  done;
  let reader =
    Api.fork ~name:"containsAll-caller" (fun () ->
        (* holds l1's monitor, iterates l2 WITHOUT l2's monitor *)
        ignore (Collections.contains_all l1 l2))
  in
  let mutator =
    Api.fork ~name:"mutator" (fun () ->
        ignore (l2.Jcoll.remove 20);
        ignore (l2.Jcoll.add 99))
  in
  Api.join reader;
  Api.join mutator

let () =
  Fmt.pr "== JDK synchronized-collection bug (paper §5.3) ==@.@.";
  let analysis =
    (Rf_campaign.Campaign.run
       {
         Rf_campaign.Campaign.default_config with
         domains = 1;
         phase1_seeds = List.init 8 Fun.id;
         seeds_per_pair = List.init 60 Fun.id;
         cutoff = false;
       }
       program)
      .Rf_campaign.Campaign.analysis
  in
  let potential = Racefuzzer.Fuzzer.potential_pairs analysis.Racefuzzer.Fuzzer.a_phase1 in
  Fmt.pr "hybrid: %d potential pair(s) inside the collection library@."
    (Site.Pair.Set.cardinal potential);
  List.iter
    (fun (r : Racefuzzer.Fuzzer.pair_result) ->
      if Racefuzzer.Fuzzer.is_real r then
        Fmt.pr "  REAL: %a (errors in %d/%d trials)@." Site.Pair.pp
          r.Racefuzzer.Fuzzer.pr_pair r.Racefuzzer.Fuzzer.error_trials
          (List.length r.Racefuzzer.Fuzzer.trials))
    analysis.Racefuzzer.Fuzzer.results;
  match
    List.find_opt Racefuzzer.Fuzzer.is_harmful analysis.Racefuzzer.Fuzzer.results
  with
  | None -> Fmt.pr "@.no exception-producing schedule found@."
  | Some r ->
      let seed = Option.get r.Racefuzzer.Fuzzer.error_seed in
      let o, _ = Racefuzzer.Fuzzer.replay ~seed ~program r.Racefuzzer.Fuzzer.pr_pair in
      Fmt.pr "@.replayed seed %d -> uncaught exception(s):@." seed;
      List.iter
        (fun (x : Outcome.exn_report) ->
          Fmt.pr "  %s in thread %s@."
            (Printexc.to_string x.Outcome.exn_)
            x.Outcome.xthread)
        o.Outcome.exceptions
