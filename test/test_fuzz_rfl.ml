(* Metamorphic properties over randomly generated RFL programs: the
   front-end, engine and analyses must agree with themselves and with each
   other on arbitrary well-formed inputs. *)

open Rf_util

let run ?(seed = 0) ?(record_trace = false) ?(strategy = Rf_runtime.Strategy.random ())
    main =
  Rf_runtime.Engine.run
    ~config:
      {
        Rf_runtime.Engine.default_config with
        seed;
        record_trace;
        max_steps = 100_000;
      }
    ~strategy main

let main_of prog = Rf_lang.Lang.program ~print:ignore prog

(* 1. Every generated program passes the static checker. *)
let prop_generated_well_formed =
  QCheck.Test.make ~name:"generated programs are well-formed" ~count:120
    Rfl_gen.arbitrary_program (fun prog ->
      Rf_lang.Check.check prog;
      true)

(* 2. Pretty-print then parse is the identity up to positions. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"parse . print = id (modulo positions)" ~count:120
    Rfl_gen.arbitrary_program (fun prog ->
      let src = Rf_lang.Pretty.program_to_string prog in
      let prog' = Rf_lang.Lang.parse_string ~file:"gen.rfl" src in
      Rf_lang.Pretty.program_equal prog prog')

(* 3. Runs are deterministic: same seed, same trace. *)
let prop_deterministic =
  QCheck.Test.make ~name:"same seed => identical trace" ~count:60
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let main = main_of prog in
      let t1 = run ~seed ~record_trace:true main in
      let t2 = run ~seed ~record_trace:true main in
      match (t1.Rf_runtime.Outcome.trace, t2.Rf_runtime.Outcome.trace) with
      | Some a, Some b -> Rf_events.Trace.equal a b
      | _ -> false)

(* 4. Generated programs terminate (bounded loops): never hit the step
   bound under any built-in scheduler. Deadlock (via sync nesting) is
   impossible here because sync bodies only nest distinct locks... they may
   nest the same ones in both orders — deadlock IS possible, and legal; we
   only require no timeout. *)
let prop_no_timeout =
  QCheck.Test.make ~name:"generated programs never time out" ~count:60
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let main = main_of prog in
      List.for_all
        (fun strat -> not (run ~seed ~strategy:(strat ()) main).Rf_runtime.Outcome.timed_out)
        [
          Rf_runtime.Strategy.random;
          Rf_runtime.Strategy.round_robin;
          (fun () -> Rf_runtime.Strategy.timesliced ~quantum:4 ());
        ])

(* 5. Per trace: precise happens-before races are a subset of hybrid's. *)
let prop_hybrid_superset =
  QCheck.Test.make ~name:"hybrid ⊇ precise-HB on generated programs" ~count:60
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let main = main_of prog in
      let hy = Rf_detect.Detector.hybrid () in
      let hb = Rf_detect.Detector.hb_precise () in
      ignore
        (Rf_runtime.Engine.run
           ~config:{ Rf_runtime.Engine.default_config with seed; max_steps = 100_000 }
           ~listeners:[ Rf_detect.Detector.feed hy; Rf_detect.Detector.feed hb ]
           ~strategy:(Rf_runtime.Strategy.random ()) main);
      Site.Pair.Set.subset
        (Rf_detect.Detector.pairs hb)
        (Rf_detect.Detector.pairs hy))

(* 6. RaceFuzzer soundness: every race it confirms was a phase-1 candidate,
   and every hit's location belongs to the fuzzed pair's sites. *)
let prop_confirmed_subset_of_candidates =
  QCheck.Test.make ~name:"confirmed ⊆ potential on generated programs" ~count:25
    Rfl_gen.arbitrary_program (fun prog ->
      let main = main_of prog in
      let a =
        (Rf_campaign.Campaign.run
           {
             Rf_campaign.Campaign.default_config with
             domains = 1;
             phase1_seeds = [ 0; 1 ];
             seeds_per_pair = List.init 10 Fun.id;
             cutoff = false;
           }
           main)
          .Rf_campaign.Campaign.analysis
      in
      Site.Pair.Set.subset a.Racefuzzer.Fuzzer.real_pairs
        (Racefuzzer.Fuzzer.potential_pairs a.Racefuzzer.Fuzzer.a_phase1))

(* 7. Every RaceFuzzer hit really names the RaceSet pair. *)
let prop_hits_on_the_pair =
  QCheck.Test.make ~name:"every hit is on the fuzzed pair" ~count:25
    Rfl_gen.arbitrary_program (fun prog ->
      let main = main_of prog in
      let p1 = Racefuzzer.Fuzzer.phase1 ~seeds:[ 0; 1 ] main in
      Site.Pair.Set.for_all
        (fun pair ->
          List.for_all
            (fun seed ->
              let _, rep = Racefuzzer.Fuzzer.replay ~seed ~program:main pair in
              List.for_all
                (fun (h : Racefuzzer.Algo.hit) ->
                  Site.Pair.equal h.Racefuzzer.Algo.hit_pair pair
                  && Site.Pair.mem (fst h.Racefuzzer.Algo.hit_sites) pair
                  && Site.Pair.mem (snd h.Racefuzzer.Algo.hit_sites) pair)
                (Racefuzzer.Algo.hits rep))
            [ 0; 3; 7 ])
        (Racefuzzer.Fuzzer.potential_pairs p1))

(* 8. Printed program behaves like the original (sites differ in position
   only): same step count, same number of uncaught exceptions, same
   deadlock verdict under the same seed and scheduler. *)
let prop_print_preserves_behaviour =
  QCheck.Test.make ~name:"pretty-printing preserves behaviour" ~count:50
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let src = Rf_lang.Pretty.program_to_string prog in
      let prog' = Rf_lang.Lang.load_string ~file:"gen2.rfl" src in
      let o1 = run ~seed (main_of prog) in
      let o2 = run ~seed (main_of prog') in
      o1.Rf_runtime.Outcome.steps = o2.Rf_runtime.Outcome.steps
      && List.length o1.Rf_runtime.Outcome.exceptions
         = List.length o2.Rf_runtime.Outcome.exceptions
      && (o1.Rf_runtime.Outcome.deadlocked = [])
         = (o2.Rf_runtime.Outcome.deadlocked = []))

let () =
  Alcotest.run "rfl_fuzz"
    [
      ( "metamorphic",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_generated_well_formed;
            prop_roundtrip;
            prop_deterministic;
            prop_no_timeout;
            prop_hybrid_superset;
            prop_confirmed_subset_of_candidates;
            prop_hits_on_the_pair;
            prop_print_preserves_behaviour;
          ] );
    ]
