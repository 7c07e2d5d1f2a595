(* The static pre-filter's test suite (Rf_static.Static):

   1. Differential QCheck soundness: over generated RFL programs
      (rfl_gen's filter-adversarial shapes), a pair the analysis marks
      [Impossible] must never be confirmable by phase 2 — checked both at
      the frontier (an analysis' confirmed sets vs the classifier) and
      directly (fuzzing Impossible universe pairs and demanding zero race
      trials).  Deadlocks are deliberately out of scope: a trial can
      deadlock while fuzzing any pair, racy or not, so only race
      confirmations (real/error) falsify an [Impossible] verdict.
   2. Litmus units for each fact family: must-hold locksets (branch
      joins, loop fixpoints, call release-closures), thread reach /
      escape, fork/join ordering (declared [after] chains and the
      accumulated-join rule), plus the hand-model builder's
      merge-by-site semantics.
   3. Golden classification counts per registry workload model — drift in
      the analysis or the models fails loudly here.
   4. Campaign integration: a starved phase-1 detector (tiny
      [detector_budget]) loses fork/join edges and over-reports ordered
      pairs; [--static-filter] removes exactly those, and the filtered
      campaign fingerprints as the unfiltered one restricted to surviving
      pairs, with an identical confirmed fingerprint, through journal
      resume included. *)

open Rf_util
module Static = Rf_static.Static
module Fuzzer = Racefuzzer.Fuzzer
module Campaign = Rf_campaign.Campaign
module Event_log = Rf_campaign.Event_log
module W = Rf_workloads

let max_steps = 100_000
let main_of prog = Rf_lang.Lang.program ~print:ignore prog
let load ~file src = Rf_lang.Lang.load_string ~file src

let confirmed_races (a : Fuzzer.analysis) =
  Site.Pair.Set.union a.Fuzzer.real_pairs a.Fuzzer.error_pairs

(* Both phases on one domain, every trial of every pair: phase 1 on seed
   0, phase 2 on [trials]. *)
let analyze ?static ?(static_filter = false) ~trials main =
  (Campaign.run
     {
       Campaign.default_config with
       domains = 1;
       phase1_seeds = [ 0 ];
       seeds_per_pair = trials;
       cutoff = false;
       max_steps;
       static;
       static_filter;
     }
     main)
    .Campaign.analysis

let is_impossible st p =
  match Static.classify st p with Static.Impossible _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* 1. Differential soundness                                           *)

(* Frontier differential: run both phases for real, then demand that no
   pair phase 2 confirmed classifies Impossible. *)
let prop_confirmed_never_impossible =
  QCheck.Test.make ~name:"confirmed race => not Impossible" ~count:500
    Rfl_gen.arbitrary_program (fun prog ->
      let st = Static.of_program prog in
      let a = analyze ~trials:[ 0; 1; 2; 3 ] (main_of prog) in
      Site.Pair.Set.for_all
        (fun p -> not (is_impossible st p))
        (confirmed_races a))

(* Universe differential: phase 2 can fuzz *any* pair, not just frontier
   pairs, so Impossible verdicts anywhere in the candidate universe can be
   ground-truthed directly.  A bounded, reason-diverse sample keeps the
   property affordable; every reason family gets fuzzed. *)
let reason_tag = function
  | Static.No_write -> 0
  | Static.Single_thread -> 1
  | Static.Fork_join_ordered -> 2
  | Static.Common_lock _ -> 3

let impossible_sample ?(per_reason = 3) st =
  let tagged =
    List.filter_map
      (fun p ->
        match Static.classify st p with
        | Static.Impossible r -> Some (reason_tag r, p)
        | _ -> None)
      (Site.Pair.Set.elements (Static.universe st))
  in
  List.concat_map
    (fun tag ->
      List.filteri
        (fun i _ -> i < per_reason)
        (List.filter_map
           (fun (t, p) -> if t = tag then Some p else None)
           tagged))
    [ 0; 1; 2; 3 ]

let prop_impossible_unfuzzable =
  QCheck.Test.make ~name:"Impossible universe pairs create no race" ~count:120
    Rfl_gen.arbitrary_program (fun prog ->
      let main = main_of prog in
      List.for_all
        (fun p ->
          let r = Fuzzer.fuzz_pair ~seeds:[ 0; 1; 2 ] ~max_steps ~program:main p in
          r.Fuzzer.race_trials = 0)
        (impossible_sample (Static.of_program prog)))

(* A filtered analysis agrees with the unfiltered one on every race
   confirmation, and never filters a pair the unfiltered run confirmed. *)
let prop_filtered_analyze_sound =
  QCheck.Test.make ~name:"campaign ~static_filter confirms the same races"
    ~count:60 Rfl_gen.arbitrary_program (fun prog ->
      let st = Static.of_program prog in
      let main = main_of prog in
      let run filter =
        analyze ~static:st ~static_filter:filter ~trials:[ 0; 1; 2 ] main
      in
      let unfiltered = run false and filtered = run true in
      Site.Pair.Set.equal (confirmed_races unfiltered) (confirmed_races filtered)
      && List.for_all
           (fun (p, _) -> not (Site.Pair.Set.mem p (confirmed_races unfiltered)))
           filtered.Fuzzer.a_filtered)

(* ------------------------------------------------------------------ *)
(* 2. Litmus units                                                     *)

let static_of ~file src = Static.of_program (load ~file src)

let sites_of st var =
  List.filter
    (fun s ->
      match Static.facts_of st s with
      | Some f -> String.equal f.Static.sf_var var
      | None -> false)
    (Static.sites st)

(* The unique cross pair of a variable with exactly two access sites. *)
let cross_pair st var =
  match sites_of st var with
  | [ a; b ] -> Site.Pair.make a b
  | l ->
      Alcotest.failf "expected exactly 2 sites for %s, got %d" var
        (List.length l)

let vcheck what expected st pair =
  Alcotest.(check string)
    what expected
    (Static.verdict_to_string (Static.classify st pair))

let test_common_lock () =
  let st =
    static_of ~file:"lock.rfl"
      {|
shared int g;
lock L;
thread t1 { sync (L) { g = 1; } }
thread t2 { sync (L) { g = 2; } }
|}
  in
  vcheck "consistently locked" "impossible:common-lock:L" st (cross_pair st "g");
  let c = Static.universe_counts st in
  Alcotest.(check int) "whole universe impossible" 3 c.Static.n_impossible

let test_lock_alias () =
  let st =
    static_of ~file:"alias.rfl"
      {|
shared int g;
lock L0;
lock L1;
thread t1 { sync (L0) { g = 1; } }
thread t2 { sync (L1) { g = 2; } }
|}
  in
  vcheck "aliased locks do not protect" "likely" st (cross_pair st "g")

let test_read_read () =
  let st =
    static_of ~file:"rr.rfl"
      {|
shared int g;
thread t1 { if (g == 1) { skip; } }
thread t2 { if (g == 0) { skip; } }
|}
  in
  vcheck "read/read" "impossible:no-write" st (cross_pair st "g")

let test_single_thread () =
  let st =
    static_of ~file:"single.rfl"
      {|
shared int g;
thread t1 { g = 1; g = 2; }
thread t2 { skip; }
|}
  in
  vcheck "one thread only" "impossible:single-thread" st (cross_pair st "g");
  Alcotest.(check bool) "g does not escape" false (Static.escaped st "g")

let test_fork_join_chain () =
  let st =
    static_of ~file:"chain3.rfl"
      {|
shared int g;
thread t1 { g = 1; }
thread t2 after t1 { skip; }
thread t3 after t2 { g = 2; }
|}
  in
  Alcotest.(check bool) "t1 < t3 transitively" true (Static.is_ordered st "t1" "t3");
  Alcotest.(check bool) "no parallelism t1/t3" false (Static.may_parallel st "t1" "t3");
  vcheck "ordered writes" "impossible:fork-join-ordered" st (cross_pair st "g");
  Alcotest.(check bool) "g does not escape" false (Static.escaped st "g")

(* Once a dependency has been joined, every *later-declared* thread forks
   after its death — the accumulated-join rule of the sequential main. *)
let test_fork_join_accumulated () =
  let st =
    static_of ~file:"accum.rfl"
      {|
shared int g;
thread t1 { g = 1; }
thread t2 after t1 { skip; }
thread t3 { g = 2; }
|}
  in
  Alcotest.(check bool) "t1 dead before t3 forks" true (Static.is_ordered st "t1" "t3");
  vcheck "ordered via accumulated join" "impossible:fork-join-ordered" st
    (cross_pair st "g")

let test_unordered_still_parallel () =
  let st =
    static_of ~file:"diamond.rfl"
      {|
shared int g;
thread t1 { skip; }
thread t2 after t1 { g = 1; }
thread t3 after t1 { g = 2; }
|}
  in
  Alcotest.(check bool) "siblings unordered" true (Static.may_parallel st "t2" "t3");
  vcheck "diamond siblings race" "likely" st (cross_pair st "g");
  Alcotest.(check bool) "g escapes" true (Static.escaped st "g")

(* Branch join is intersection: a lock held in only one branch protects
   nothing downstream, and a bare write in the other branch is exposed. *)
let test_conditional_lock () =
  let st =
    static_of ~file:"cond.rfl"
      {|
shared int g;
shared bool b;
lock L;
thread t1 {
  if (b) { sync (L) { g = 1; } } else { g = 2; }
}
thread t2 { sync (L) { g = 3; } }
|}
  in
  let bare, locked =
    match
      List.partition
        (fun s ->
          match Static.facts_of st s with
          | Some f -> Static.SS.is_empty f.Static.sf_locks
          | None -> false)
        (List.filter
           (fun s ->
             match Static.facts_of st s with
             | Some f -> f.Static.sf_write
             | None -> false)
           (sites_of st "g"))
    with
    | [ bare ], locked :: _ -> (bare, locked)
    | _ -> Alcotest.fail "expected one bare and two locked writes"
  in
  let t2_site =
    List.find
      (fun s ->
        match Static.facts_of st s with
        | Some f -> Static.SS.mem "t2" f.Static.sf_threads
        | None -> false)
      (sites_of st "g")
  in
  vcheck "bare branch exposes the write" "likely" st (Site.Pair.make bare t2_site);
  vcheck "locked branch is protected" "impossible:common-lock:L" st
    (Site.Pair.make locked t2_site)

(* A statement after the branch join must hold only the intersection. *)
let test_branch_join_intersection () =
  let st =
    static_of ~file:"join.rfl"
      {|
shared int g;
shared bool b;
lock L;
thread t1 {
  lock(L);
  if (b) { unlock(L); } else { skip; }
  g = 1;
}
thread t2 { sync (L) { g = 2; } }
|}
  in
  vcheck "post-join lockset is the intersection" "likely" st (cross_pair st "g")

(* Loop fixpoint: a lock released inside the body is not must-held at the
   body's entry on later iterations. *)
let test_loop_fixpoint () =
  let st =
    static_of ~file:"loop.rfl"
      {|
shared int g;
lock L;
thread t1 {
  lock(L);
  for (let i = 0; i < 3; i = i + 1) { g = 1; unlock(L); lock(L); }
  unlock(L);
}
thread t2 { sync (L) { g = 2; } }
|}
  in
  (* the body re-acquires before looping, so L *is* must-held at g=1 *)
  vcheck "balanced body keeps the lock" "impossible:common-lock:L" st
    (cross_pair st "g");
  let st2 =
    static_of ~file:"loop2.rfl"
      {|
shared int g;
lock L;
thread t1 {
  lock(L);
  for (let i = 0; i < 3; i = i + 1) { g = 1; unlock(L); }
}
thread t2 { sync (L) { g = 2; } }
|}
  in
  (* unbalanced body: the fixpoint empties the entry set, g=1 unprotected *)
  vcheck "unbalanced body loses the lock" "likely" st2 (cross_pair st2 "g")

(* A call's release closure is subtracted: sync (L) { f(); g = 1; } where f
   might unlock L cannot claim L at the write. *)
let test_call_release_closure () =
  let st =
    static_of ~file:"call.rfl"
      {|
shared int g;
lock L;
def f() { unlock(L); lock(L); }
thread t1 { sync (L) { f(); g = 1; } }
thread t2 { sync (L) { g = 2; } }
|}
  in
  vcheck "callee may release the lock" "likely" st (cross_pair st "g")

(* Thread reach flows through the call graph: a helper's site belongs to
   every thread that can transitively reach it. *)
let test_call_graph_reach () =
  let st =
    static_of ~file:"reach.rfl"
      {|
shared int g;
def helper() { g = 1; }
def wrap() { helper(); }
thread t1 { wrap(); }
thread t2 { helper(); }
|}
  in
  match sites_of st "g" with
  | [ s ] -> (
      match Static.facts_of st s with
      | Some f ->
          Alcotest.(check bool) "t1 reaches via wrap" true
            (Static.SS.mem "t1" f.Static.sf_threads);
          Alcotest.(check bool) "t2 reaches directly" true
            (Static.SS.mem "t2" f.Static.sf_threads);
          vcheck "reflexive pair races" "likely" st (Site.Pair.make s s)
      | None -> Alcotest.fail "no facts for helper's write")
  | l -> Alcotest.failf "expected 1 site, got %d" (List.length l)

let test_unknown_cases () =
  let st = static_of ~file:"unk.rfl" {|
shared int g;
shared int h;
thread t1 { g = 1; h = 1; }
thread t2 { g = 2; }
|} in
  let foreign = Site.make ~file:"elsewhere" ~line:1 "mystery" in
  let g_site = List.hd (sites_of st "g") in
  vcheck "unseen site" "unknown:no-facts" st (Site.Pair.make foreign g_site);
  let h_site = List.hd (sites_of st "h") in
  vcheck "different locations" "unknown:different-locations" st
    (Site.Pair.make g_site h_site)

(* ------------------------------------------------------------------ *)
(* Model builder litmus: merge-by-site semantics                       *)

let msite line label = Site.make ~file:"model" ~line label

let test_model_merge_keeps_common_lock () =
  let open Static in
  let b = Model.create () in
  let s = msite 1 "x=" and s2 = msite 2 "x=" in
  Model.access b ~site:s ~var:"x" ~write:true ~thread:"t1" ~locks:[ "A"; "B" ];
  Model.access b ~site:s ~var:"x" ~write:true ~thread:"t2" ~locks:[ "B" ];
  Model.access b ~site:s2 ~var:"x" ~write:true ~thread:"t3" ~locks:[ "B" ];
  let st = Model.build b in
  (* occurrences merge: threads union, locks intersect *)
  vcheck "intersected lock survives" "impossible:common-lock:B" st
    (Site.Pair.make s s2);
  vcheck "reflexive pair still protected" "impossible:common-lock:B" st
    (Site.Pair.make s s)

let test_model_merge_drops_lost_lock () =
  let open Static in
  let b = Model.create () in
  let s = msite 3 "y=" in
  Model.access b ~site:s ~var:"y" ~write:true ~thread:"t1" ~locks:[ "A" ];
  Model.access b ~site:s ~var:"y" ~write:true ~thread:"t2" ~locks:[];
  let st = Model.build b in
  vcheck "one bare occurrence empties the lockset" "likely" st
    (Site.Pair.make s s)

let test_model_merge_write_or () =
  let open Static in
  let b = Model.create () in
  let s = msite 4 "z" and s2 = msite 5 "z" in
  Model.access b ~site:s ~var:"z" ~write:false ~thread:"t1" ~locks:[];
  Model.access b ~site:s ~var:"z" ~write:true ~thread:"t1" ~locks:[];
  Model.access b ~site:s2 ~var:"z" ~write:false ~thread:"t2" ~locks:[];
  let st = Model.build b in
  vcheck "merged occurrence counts as a write" "likely" st (Site.Pair.make s s2)

let test_model_order_transitive () =
  let open Static in
  let b = Model.create () in
  let s = msite 6 "w=" and s2 = msite 7 "w=" in
  Model.access b ~site:s ~var:"w" ~write:true ~thread:"a" ~locks:[];
  Model.access b ~site:s2 ~var:"w" ~write:true ~thread:"c" ~locks:[];
  Model.order b ~first:"a" ~then_:"b";
  Model.order b ~first:"b" ~then_:"c";
  let st = Model.build b in
  Alcotest.(check bool) "a < c transitively" true (Static.is_ordered st "a" "c");
  vcheck "ordered model threads" "impossible:fork-join-ordered" st
    (Site.Pair.make s s2)

(* ------------------------------------------------------------------ *)
(* 3. Golden classification counts                                     *)

(* (workload, universe, impossible, likely, unknown).  These are checked-in
   expectations: a change to the analysis or to a workload's hand model
   that shifts any verdict fails here and must update the table
   deliberately. *)
let workload_golden =
  [
    ("figure1", 9, 7, 2, 0);
    ("figure2[k=50]", 5, 4, 1, 0);
    ("cache4j", 36, 25, 11, 0);
    ("stress-threads", 4, 1, 3, 0);
    ("stress-locks", 10, 7, 3, 0);
    ("stress-hotloc", 136, 16, 120, 0);
    ("stress-sweep", 3, 2, 1, 0);
    ("stress-threads-small", 4, 1, 3, 0);
    ("stress-locks-small", 10, 7, 3, 0);
    ("stress-hotloc-small", 36, 8, 28, 0);
    ("stress-sweep-small", 3, 2, 1, 0);
  ]

let test_workload_goldens () =
  List.iter
    (fun (name, universe, imp, likely, unknown) ->
      match W.Registry.find name with
      | None -> Alcotest.failf "workload %s not registered" name
      | Some w -> (
          match w.W.Workload.static with
          | None -> Alcotest.failf "workload %s lost its static model" name
          | Some st ->
              let c = Static.universe_counts st in
              let u = Site.Pair.Set.cardinal (Static.universe st) in
              let fmt = Printf.sprintf "%s: %s" name in
              Alcotest.(check int) (fmt "universe") universe u;
              Alcotest.(check int) (fmt "impossible") imp c.Static.n_impossible;
              Alcotest.(check int) (fmt "likely") likely c.Static.n_likely;
              Alcotest.(check int) (fmt "unknown") unknown c.Static.n_unknown))
    workload_golden

(* Same drift guard for the AST path, on the shipped Figure 1 source. *)
let figure1_src =
  {|
shared int x;
shared int y;
shared int z;
lock L;

thread thread1 {
  x = 1;
  sync (L) { y = 1; }
  if (z == 1) {
    error "ERROR1";
  }
}

thread thread2 {
  z = 1;
  sync (L) {
    if (y == 1) {
      if (x != 1) {
        error "ERROR2";
      }
    }
  }
}
|}

let test_figure1_ast_golden () =
  let st = static_of ~file:"figure1.rfl" figure1_src in
  let c = Static.universe_counts st in
  let u = Site.Pair.Set.cardinal (Static.universe st) in
  Alcotest.(check int) "universe" 9 u;
  Alcotest.(check int) "impossible" 7 c.Static.n_impossible;
  Alcotest.(check int) "likely" 2 c.Static.n_likely;
  Alcotest.(check int) "unknown" 0 c.Static.n_unknown;
  (* the two survivors are the paper's candidates: the real race on z and
     the apparent (implicitly synchronized) race on x *)
  vcheck "z pair survives" "likely" st (cross_pair st "z");
  vcheck "x pair survives" "likely" st (cross_pair st "x");
  vcheck "y is lock-protected" "impossible:common-lock:L" st (cross_pair st "y")

(* ------------------------------------------------------------------ *)
(* 4. Campaign integration                                             *)

(* t1 -> t2 is fork/join ordered; t2 and t3 race on r.  A starved phase-1
   detector (detector_budget 8) evicts the fork edge and over-reports the
   ordered g pair, which the filter then removes — so filtering is
   exercised for real, not vacuously. *)
let chain_src =
  {|
shared int g;
shared int r;

thread t1 {
  g = 1;
}

thread t2 after t1 {
  g = 2;
  r = 1;
}

thread t3 {
  r = 2;
}
|}

let chain_prog = lazy (load ~file:"chain.rfl" chain_src)
let chain_static = lazy (Static.of_program (Lazy.force chain_prog))

let run_chain ?log ?resume ~static_filter () =
  Campaign.run ?log
    {
      Campaign.default_config with
      domains = 2;
      cutoff = false;
      phase1_seeds = [ 0; 1; 2 ];
      seeds_per_pair = List.init 6 Fun.id;
      max_steps;
      detector_budget = Some 8;
      resume;
      static = Some (Lazy.force chain_static);
      static_filter;
    }
    (main_of (Lazy.force chain_prog))

let test_campaign_filter_projection () =
  let st = Lazy.force chain_static in
  let unfiltered = run_chain ~static_filter:false () in
  let filtered = run_chain ~static_filter:true () in
  (* the starved detector flagged the ordered pair; the filter removed it *)
  (match filtered.Campaign.stats.Campaign.s_static with
  | None -> Alcotest.fail "no static summary"
  | Some s ->
      Alcotest.(check int) "universe" 6 s.Campaign.st_universe;
      Alcotest.(check int) "universe impossible" 5 s.Campaign.st_universe_impossible;
      Alcotest.(check int) "frontier" 2 s.Campaign.st_frontier;
      Alcotest.(check int) "likely" 1 s.Campaign.st_likely;
      Alcotest.(check int) "impossible" 1 s.Campaign.st_impossible;
      Alcotest.(check int) "filtered" 1 s.Campaign.st_filtered);
  (match unfiltered.Campaign.stats.Campaign.s_static with
  | None -> Alcotest.fail "no static summary (unfiltered)"
  | Some s -> Alcotest.(check int) "unfiltered skips nothing" 0 s.Campaign.st_filtered);
  Alcotest.(check int) "one pair recorded as filtered" 1
    (List.length filtered.Campaign.analysis.Fuzzer.a_filtered);
  (match filtered.Campaign.analysis.Fuzzer.a_filtered with
  | [ (_, Static.Impossible Static.Fork_join_ordered) ] -> ()
  | _ -> Alcotest.fail "expected one fork-join-ordered filtered pair");
  (* filtered run = unfiltered run projected onto surviving pairs *)
  let projected =
    Fuzzer.restrict_analysis
      ~keep:(fun p -> not (is_impossible st p))
      unfiltered.Campaign.analysis
  in
  Alcotest.(check string) "projection fingerprint"
    (Campaign.fingerprint projected)
    (Campaign.fingerprint filtered.Campaign.analysis);
  (* the soundness gate: confirmed verdicts are byte-identical *)
  Alcotest.(check string) "confirmed fingerprint"
    (Campaign.confirmed_fingerprint unfiltered.Campaign.analysis)
    (Campaign.confirmed_fingerprint filtered.Campaign.analysis);
  Alcotest.(check int) "the real race is still found" 1
    (Site.Pair.Set.cardinal filtered.Campaign.analysis.Fuzzer.real_pairs)

let test_campaign_filter_events () =
  let log = Event_log.memory () in
  let _ = run_chain ~log ~static_filter:true () in
  let evs = Event_log.events log in
  let filtered_evs =
    List.filter_map
      (function
        | Event_log.Pair_filtered { pair; reason } -> Some (pair, reason)
        | _ -> None)
      evs
  in
  (match filtered_evs with
  | [ (_, reason) ] ->
      Alcotest.(check string) "journaled reason" "impossible:fork-join-ordered"
        reason
  | l -> Alcotest.failf "expected 1 Pair_filtered event, got %d" (List.length l));
  match
    List.find_opt
      (function Event_log.Static_classified _ -> true | _ -> false)
      evs
  with
  | Some (Event_log.Static_classified c) ->
      Alcotest.(check int) "event universe" 6 c.universe;
      Alcotest.(check int) "event filtered" 1 c.filtered
  | _ -> Alcotest.fail "no Static_classified event"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_campaign_filter_resume () =
  let path = Filename.temp_file "static_filter" ".jsonl" in
  let log = Event_log.open_file path in
  let first = run_chain ~log ~static_filter:true () in
  Event_log.close log;
  (* full-journal resume: every trial replays, nothing re-executes *)
  let mem = Event_log.memory () in
  let resumed = run_chain ~log:mem ~resume:path ~static_filter:true () in
  Alcotest.(check string) "resumed fingerprint"
    (Campaign.fingerprint first.Campaign.analysis)
    (Campaign.fingerprint resumed.Campaign.analysis);
  Alcotest.(check bool) "trials actually replayed" true
    (resumed.Campaign.stats.Campaign.s_replayed > 0);
  (* the resumed run re-journals the same filtering decision *)
  let filtered_of evs =
    List.filter_map
      (function
        | Event_log.Pair_filtered { pair; reason } -> Some (pair, reason)
        | _ -> None)
      evs
  in
  let first_lines = read_lines path in
  Alcotest.(check bool) "journal mentions pair_filtered" true
    (List.exists
       (fun l ->
         let n = String.length l and sub = "pair_filtered" in
         let m = String.length sub in
         let rec go i = i + m <= n && (String.sub l i m = sub || go (i + 1)) in
         go 0)
       first_lines);
  Alcotest.(check int) "same filtering on resume" 1
    (List.length (filtered_of (Event_log.events mem)));
  (* killed-campaign shape: resume from a truncated journal prefix and
     still converge to the identical analysis *)
  let half = List.filteri (fun i _ -> 2 * i < List.length first_lines) first_lines in
  let part = Filename.temp_file "static_filter_part" ".jsonl" in
  let oc = open_out part in
  List.iter (fun l -> output_string oc (l ^ "\n")) half;
  close_out oc;
  let partial = run_chain ~resume:part ~static_filter:true () in
  Alcotest.(check string) "truncated-journal resume fingerprint"
    (Campaign.fingerprint first.Campaign.analysis)
    (Campaign.fingerprint partial.Campaign.analysis);
  Sys.remove path;
  Sys.remove part

let test_order_pairs_likely_first () =
  let st = Lazy.force chain_static in
  let pairs = Site.Pair.Set.elements (Static.universe st) in
  let ordered = Fuzzer.order_pairs ~static:st pairs in
  let ranks =
    List.map (fun p -> Fuzzer.verdict_rank (Static.classify st p)) ordered
  in
  Alcotest.(check (list int)) "ranks ascend" (List.sort compare ranks) ranks;
  let surviving, filtered = Fuzzer.partition_frontier ~static:st pairs in
  Alcotest.(check int) "survivors + filtered = universe" (List.length pairs)
    (List.length surviving + List.length filtered);
  List.iter
    (fun (p, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s filtered as Impossible" (Site.Pair.to_string p))
        true
        (match v with Static.Impossible _ -> true | _ -> false))
    filtered

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "static_filter"
    [
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_confirmed_never_impossible;
            prop_impossible_unfuzzable;
            prop_filtered_analyze_sound;
          ] );
      ( "litmus",
        [
          Alcotest.test_case "common lock" `Quick test_common_lock;
          Alcotest.test_case "lock aliasing" `Quick test_lock_alias;
          Alcotest.test_case "read/read" `Quick test_read_read;
          Alcotest.test_case "single thread" `Quick test_single_thread;
          Alcotest.test_case "fork/join chain" `Quick test_fork_join_chain;
          Alcotest.test_case "accumulated join" `Quick test_fork_join_accumulated;
          Alcotest.test_case "diamond siblings" `Quick test_unordered_still_parallel;
          Alcotest.test_case "conditional lock" `Quick test_conditional_lock;
          Alcotest.test_case "branch join" `Quick test_branch_join_intersection;
          Alcotest.test_case "loop fixpoint" `Quick test_loop_fixpoint;
          Alcotest.test_case "call release closure" `Quick test_call_release_closure;
          Alcotest.test_case "call graph reach" `Quick test_call_graph_reach;
          Alcotest.test_case "unknown cases" `Quick test_unknown_cases;
        ] );
      ( "model",
        [
          Alcotest.test_case "merge keeps common lock" `Quick
            test_model_merge_keeps_common_lock;
          Alcotest.test_case "merge drops lost lock" `Quick
            test_model_merge_drops_lost_lock;
          Alcotest.test_case "merge ors writes" `Quick test_model_merge_write_or;
          Alcotest.test_case "order is transitive" `Quick
            test_model_order_transitive;
        ] );
      ( "golden",
        [
          Alcotest.test_case "workload models" `Quick test_workload_goldens;
          Alcotest.test_case "figure1 AST analysis" `Quick test_figure1_ast_golden;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "filter = projection" `Quick
            test_campaign_filter_projection;
          Alcotest.test_case "filter events" `Quick test_campaign_filter_events;
          Alcotest.test_case "filter + resume" `Quick test_campaign_filter_resume;
          Alcotest.test_case "likely-first ordering" `Quick
            test_order_pairs_likely_first;
        ] );
    ]
