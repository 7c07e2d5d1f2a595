(* A tour of RFL, the little concurrent language: write a program inline,
   run it under different schedulers, detect races, fuzz, and replay.

   Run with:  dune exec examples/dsl_tour.exe *)

open Rf_util

let src =
  {|// A tiny job pipeline with a deliberate shutdown race.
shared int produced;
shared int consumed;
shared bool open_;
shared int[4] slots;
lock L;

def clamp(int v, int hi) -> int {
  if (v > hi) { return hi; }
  return v;
}

thread producer {
  open_ = true;
  for (let i = 0; i < 4; i = i + 1) {
    sync (L) {
      slots[i] = i * i;
      produced = produced + 1;
      notifyall(L);
    }
  }
  open_ = false;               // racy shutdown write
}

thread consumer {
  let got = 0;
  sync (L) {
    while (produced < 4) { wait(L); }
  }
  for (let i = 0; i < 4; i = i + 1) {
    got = got + slots[i];
  }
  consumed = clamp(got, 100);
  if (open_) {                 // racy shutdown read
    print "pipeline closed while consumer active";
  }
}
|}

let () =
  Fmt.pr "== RFL tour ==@.@.";
  let prog = Rf_lang.Lang.load_string ~file:"tour.rfl" src in
  let printed = ref [] in
  let main = Rf_lang.Lang.program ~print:(fun s -> printed := s :: !printed) prog in
  (* 1. run under three schedulers *)
  List.iter
    (fun (name, strategy) ->
      let o =
        Rf_runtime.Engine.run
          ~config:{ Rf_runtime.Engine.default_config with seed = 1 }
          ~strategy main
      in
      Fmt.pr "run [%s]: %d steps, %d threads, %s@." name o.Rf_runtime.Outcome.steps
        o.Rf_runtime.Outcome.threads_spawned
        (if Rf_runtime.Outcome.ok o then "clean exit" else "problems!"))
    [
      ("random", Rf_runtime.Strategy.random ());
      ("round-robin", Rf_runtime.Strategy.round_robin ());
      ("default", Rf_runtime.Strategy.timesliced ());
    ];
  (* 2. phase 1 with two detectors *)
  let detect mk name =
    let d = mk () in
    List.iter
      (fun seed ->
        ignore
          (Rf_runtime.Engine.run
             ~config:{ Rf_runtime.Engine.default_config with seed }
             ~listeners:[ Rf_detect.Detector.feed d ]
             ~strategy:(Rf_runtime.Strategy.random ()) main))
      (List.init 8 Fun.id);
    Fmt.pr "@.%s reports %d potential pair(s):@." name (Rf_detect.Detector.race_count d);
    List.iter (fun r -> Fmt.pr "  %a@." Rf_detect.Race.pp r) (Rf_detect.Detector.races d)
  in
  detect (fun () -> Rf_detect.Detector.hybrid ()) "hybrid";
  detect (fun () -> Rf_detect.Detector.eraser ()) "eraser";
  (* 3. fuzz everything hybrid found *)
  let a =
    (Rf_campaign.Campaign.run
       {
         Rf_campaign.Campaign.default_config with
         domains = 1;
         phase1_seeds = List.init 8 Fun.id;
         seeds_per_pair = List.init 50 Fun.id;
         cutoff = false;
       }
       main)
      .Rf_campaign.Campaign.analysis
  in
  Fmt.pr "@.RaceFuzzer verdicts:@.";
  List.iter
    (fun (r : Racefuzzer.Fuzzer.pair_result) ->
      Fmt.pr "  %a -> %s@." Site.Pair.pp r.Racefuzzer.Fuzzer.pr_pair
        (if Racefuzzer.Fuzzer.is_real r then "REAL" else "false alarm"))
    a.Racefuzzer.Fuzzer.results
