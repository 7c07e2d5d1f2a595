(* Journal schema v5 (the version history is in the interface).  The
   reader skips records it cannot parse, so an old journal degrades to
   "nothing to resume" instead of failing. *)
let schema_version = 5

type event =
  | Journal_opened of { schema : int }
  | Campaign_started of {
      domains : int;
      base_trials : int;
      budget : int option;
      cutoff : bool;
    }
  | Phase1_finished of {
      potential : int;
      wall : float;
      degraded : bool;
      level : string;
    }
  | Wave_started of { wave : int; tasks : int }
  | Trial_started of { pair : string; seed : int; domain : int }
  | Trial_finished of {
      pair : string;
      seed : int;
      domain : int;
      race : bool;
      error : bool;
      deadlock : bool;
      steps : int;
      switches : int;
      exns : int;
      wall : float;
      degraded : bool;
      level : string;
      trigger : string;
      evicted : int;
    }
  | Trial_crashed of {
      pair : string;
      seed : int;
      domain : int;
      exn_ : string;
      backtrace : string;
    }
  | Trial_exhausted of {
      pair : string;
      seed : int;
      domain : int;
      reason : string;
      steps : int;
      wall : float;
    }
  | Pair_filtered of { pair : string; reason : string }
  | Static_classified of {
      universe : int;
      universe_impossible : int;
      frontier : int;
      likely : int;
      unknown : int;
      impossible : int;
      filtered : int;
      wall : float;
    }
  | Pair_resolved of { pair : string; at_trial : int }
  | Pair_quarantined of { pair : string; crashes : int; at_trial : int }
  | Trials_cancelled of { pair : string; count : int }
  | Budget_granted of { pair : string; extra : int }
  | Worker_crashed of { domain : int; attempt : int; exn_ : string }
  | Worker_respawned of { domain : int; attempt : int; backoff : float }
  | Worker_gave_up of { domain : int }
  | Worker_spawned of { worker : int; pid : int }
  | Worker_killed of { worker : int; pid : int; reason : string }
  | Corpus_updated of { dir : string; added : int; deduped : int; total : int }
  | Resume_loaded of { entries : int; skipped : int }
  | Campaign_interrupted of { executed : int; remaining : int }
  | Repro_written of {
      pair : string;
      fingerprint : string;
      seed : int;
      file : string;
      steps_before : int;
      steps_after : int;
      switches_before : int;
      switches_after : int;
      oracle_runs : int;
    }
  | Campaign_finished of {
      wall : float;
      trials : int;
      cancelled : int;
      throughput : float;
    }

(* ------------------------------------------------------------------ *)
(* JSON lines, through the shared codec                                *)

module Json = Rf_util.Json

(* campaign_bench/journal.ml reads journals through these names, and the
   benchmark is not edited together with the library, so they stay here
   as type-equal aliases of the shared codec's.  Every other caller uses
   Rf_util.Json directly. *)
type jv = Json.t =
  | I of int
  | F of float
  | S of string
  | B of bool
  | Null
  | A of jv list
  | O of (string * jv) list

type seal_status = Json.seal_status = Sealed_ok | Sealed_bad | Unsealed

let parse_flat = Json.parse_flat
let check_seal = Json.check_seal

let fields_of_event = function
  | Journal_opened { schema } -> ("journal_opened", [ ("schema", I schema) ])
  | Campaign_started { domains; base_trials; budget; cutoff } ->
      ( "campaign_started",
        [
          ("domains", I domains);
          ("base_trials", I base_trials);
          ("budget", (match budget with Some b -> I b | None -> Null));
          ("cutoff", B cutoff);
        ] )
  | Phase1_finished { potential; wall; degraded; level } ->
      ( "phase1_finished",
        [
          ("potential", I potential);
          ("wall", F wall);
          ("degraded", B degraded);
          ("level", S level);
        ] )
  | Wave_started { wave; tasks } ->
      ("wave_started", [ ("wave", I wave); ("tasks", I tasks) ])
  | Trial_started { pair; seed; domain } ->
      ("trial_started", [ ("pair", S pair); ("seed", I seed); ("domain", I domain) ])
  | Trial_finished
      {
        pair;
        seed;
        domain;
        race;
        error;
        deadlock;
        steps;
        switches;
        exns;
        wall;
        degraded;
        level;
        trigger;
        evicted;
      } ->
      ( "trial_finished",
        [
          ("pair", S pair);
          ("seed", I seed);
          ("domain", I domain);
          ("race", B race);
          ("error", B error);
          ("deadlock", B deadlock);
          ("steps", I steps);
          ("switches", I switches);
          ("exns", I exns);
          ("wall", F wall);
          ("degraded", B degraded);
          ("level", S level);
          ("trigger", S trigger);
          ("evicted", I evicted);
        ] )
  | Trial_crashed { pair; seed; domain; exn_; backtrace } ->
      ( "trial_crashed",
        [
          ("pair", S pair);
          ("seed", I seed);
          ("domain", I domain);
          ("exn", S exn_);
          ("backtrace", S backtrace);
        ] )
  | Trial_exhausted { pair; seed; domain; reason; steps; wall } ->
      ( "trial_exhausted",
        [
          ("pair", S pair);
          ("seed", I seed);
          ("domain", I domain);
          ("reason", S reason);
          ("steps", I steps);
          ("wall", F wall);
        ] )
  | Pair_filtered { pair; reason } ->
      ("pair_filtered", [ ("pair", S pair); ("reason", S reason) ])
  | Static_classified
      {
        universe;
        universe_impossible;
        frontier;
        likely;
        unknown;
        impossible;
        filtered;
        wall;
      } ->
      ( "static_classified",
        [
          ("universe", I universe);
          ("universe_impossible", I universe_impossible);
          ("frontier", I frontier);
          ("likely", I likely);
          ("unknown", I unknown);
          ("impossible", I impossible);
          ("filtered", I filtered);
          ("wall", F wall);
        ] )
  | Pair_resolved { pair; at_trial } ->
      ("pair_resolved", [ ("pair", S pair); ("at_trial", I at_trial) ])
  | Pair_quarantined { pair; crashes; at_trial } ->
      ( "pair_quarantined",
        [ ("pair", S pair); ("crashes", I crashes); ("at_trial", I at_trial) ] )
  | Trials_cancelled { pair; count } ->
      ("trials_cancelled", [ ("pair", S pair); ("count", I count) ])
  | Budget_granted { pair; extra } ->
      ("budget_granted", [ ("pair", S pair); ("extra", I extra) ])
  | Worker_crashed { domain; attempt; exn_ } ->
      ( "worker_crashed",
        [ ("domain", I domain); ("attempt", I attempt); ("exn", S exn_) ] )
  | Worker_respawned { domain; attempt; backoff } ->
      ( "worker_respawned",
        [ ("domain", I domain); ("attempt", I attempt); ("backoff", F backoff) ] )
  | Worker_gave_up { domain } -> ("worker_gave_up", [ ("domain", I domain) ])
  | Worker_spawned { worker; pid } ->
      ("worker_spawned", [ ("worker", I worker); ("pid", I pid) ])
  | Worker_killed { worker; pid; reason } ->
      ( "worker_killed",
        [ ("worker", I worker); ("pid", I pid); ("reason", S reason) ] )
  | Corpus_updated { dir; added; deduped; total } ->
      ( "corpus_updated",
        [
          ("dir", S dir);
          ("added", I added);
          ("deduped", I deduped);
          ("total", I total);
        ] )
  | Resume_loaded { entries; skipped } ->
      ("resume_loaded", [ ("entries", I entries); ("skipped", I skipped) ])
  | Campaign_interrupted { executed; remaining } ->
      ( "campaign_interrupted",
        [ ("executed", I executed); ("remaining", I remaining) ] )
  | Repro_written
      {
        pair;
        fingerprint;
        seed;
        file;
        steps_before;
        steps_after;
        switches_before;
        switches_after;
        oracle_runs;
      } ->
      ( "repro_written",
        [
          ("pair", S pair);
          ("fingerprint", S fingerprint);
          ("seed", I seed);
          ("file", S file);
          ("steps_before", I steps_before);
          ("steps_after", I steps_after);
          ("switches_before", I switches_before);
          ("switches_after", I switches_after);
          ("oracle_runs", I oracle_runs);
        ] )
  | Campaign_finished { wall; trials; cancelled; throughput } ->
      ( "campaign_finished",
        [
          ("wall", F wall);
          ("trials", I trials);
          ("cancelled", I cancelled);
          ("throughput", F throughput);
        ] )

let event_name ev = fst (fields_of_event ev)

let to_json ~seq ~elapsed ev =
  let name, fields = fields_of_event ev in
  Json.render_flat (("seq", I seq) :: ("t", F elapsed) :: ("ev", S name) :: fields)

(* ------------------------------------------------------------------ *)
(* Reading lines back                                                  *)

let opt_int fields k =
  match List.assoc_opt k fields with
  | Some (I n) -> Some (Some n)
  | Some Null -> Some None
  | _ -> None

let event_of_fields fields : event option =
  let ( let* ) = Option.bind in
  match Json.str fields "ev" with
  | Some "journal_opened" ->
      let* schema = Json.int fields "schema" in
      Some (Journal_opened { schema })
  | Some "campaign_started" ->
      let* domains = Json.int fields "domains" in
      let* base_trials = Json.int fields "base_trials" in
      let* budget = opt_int fields "budget" in
      let* cutoff = Json.bool fields "cutoff" in
      Some (Campaign_started { domains; base_trials; budget; cutoff })
  | Some "phase1_finished" ->
      let* potential = Json.int fields "potential" in
      let* wall = Json.num fields "wall" in
      (* degradation fields arrived in v3; default for older journals.
         The v5 detector identity and miss bound fields are ignored. *)
      let degraded = Option.value ~default:false (Json.bool fields "degraded") in
      let level = Option.value ~default:"full" (Json.str fields "level") in
      Some (Phase1_finished { potential; wall; degraded; level })
  | Some "wave_started" ->
      let* wave = Json.int fields "wave" in
      let* tasks = Json.int fields "tasks" in
      Some (Wave_started { wave; tasks })
  | Some "trial_started" ->
      let* pair = Json.str fields "pair" in
      let* seed = Json.int fields "seed" in
      let* domain = Json.int fields "domain" in
      Some (Trial_started { pair; seed; domain })
  | Some "trial_finished" ->
      let* pair = Json.str fields "pair" in
      let* seed = Json.int fields "seed" in
      let* domain = Json.int fields "domain" in
      let* race = Json.bool fields "race" in
      let* error = Json.bool fields "error" in
      let* deadlock = Json.bool fields "deadlock" in
      let* steps = Json.int fields "steps" in
      let* switches = Json.int fields "switches" in
      let* exns = Json.int fields "exns" in
      let* wall = Json.num fields "wall" in
      let degraded = Option.value ~default:false (Json.bool fields "degraded") in
      let level = Option.value ~default:"full" (Json.str fields "level") in
      let trigger = Option.value ~default:"" (Json.str fields "trigger") in
      let evicted = Option.value ~default:0 (Json.int fields "evicted") in
      Some
        (Trial_finished
           {
             pair;
             seed;
             domain;
             race;
             error;
             deadlock;
             steps;
             switches;
             exns;
             wall;
             degraded;
             level;
             trigger;
             evicted;
           })
  | Some "trial_crashed" ->
      let* pair = Json.str fields "pair" in
      let* seed = Json.int fields "seed" in
      let* domain = Json.int fields "domain" in
      let* exn_ = Json.str fields "exn" in
      let* backtrace = Json.str fields "backtrace" in
      Some (Trial_crashed { pair; seed; domain; exn_; backtrace })
  | Some "trial_exhausted" ->
      let* pair = Json.str fields "pair" in
      let* seed = Json.int fields "seed" in
      let* domain = Json.int fields "domain" in
      let* reason = Json.str fields "reason" in
      let* steps = Json.int fields "steps" in
      let* wall = Json.num fields "wall" in
      Some (Trial_exhausted { pair; seed; domain; reason; steps; wall })
  | Some "pair_filtered" ->
      let* pair = Json.str fields "pair" in
      let* reason = Json.str fields "reason" in
      Some (Pair_filtered { pair; reason })
  | Some "static_classified" ->
      let* universe = Json.int fields "universe" in
      let* universe_impossible = Json.int fields "universe_impossible" in
      let* frontier = Json.int fields "frontier" in
      let* likely = Json.int fields "likely" in
      let* unknown = Json.int fields "unknown" in
      let* impossible = Json.int fields "impossible" in
      let* filtered = Json.int fields "filtered" in
      let* wall = Json.num fields "wall" in
      Some
        (Static_classified
           {
             universe;
             universe_impossible;
             frontier;
             likely;
             unknown;
             impossible;
             filtered;
             wall;
           })
  | Some "pair_resolved" ->
      let* pair = Json.str fields "pair" in
      let* at_trial = Json.int fields "at_trial" in
      Some (Pair_resolved { pair; at_trial })
  | Some "pair_quarantined" ->
      let* pair = Json.str fields "pair" in
      let* crashes = Json.int fields "crashes" in
      let* at_trial = Json.int fields "at_trial" in
      Some (Pair_quarantined { pair; crashes; at_trial })
  | Some "trials_cancelled" ->
      let* pair = Json.str fields "pair" in
      let* count = Json.int fields "count" in
      Some (Trials_cancelled { pair; count })
  | Some "budget_granted" ->
      let* pair = Json.str fields "pair" in
      let* extra = Json.int fields "extra" in
      Some (Budget_granted { pair; extra })
  | Some "worker_crashed" ->
      let* domain = Json.int fields "domain" in
      let* attempt = Json.int fields "attempt" in
      let* exn_ = Json.str fields "exn" in
      Some (Worker_crashed { domain; attempt; exn_ })
  | Some "worker_respawned" ->
      let* domain = Json.int fields "domain" in
      let* attempt = Json.int fields "attempt" in
      let* backoff = Json.num fields "backoff" in
      Some (Worker_respawned { domain; attempt; backoff })
  | Some "worker_gave_up" ->
      let* domain = Json.int fields "domain" in
      Some (Worker_gave_up { domain })
  | Some "worker_spawned" ->
      let* worker = Json.int fields "worker" in
      let* pid = Json.int fields "pid" in
      Some (Worker_spawned { worker; pid })
  | Some "worker_killed" ->
      let* worker = Json.int fields "worker" in
      let* pid = Json.int fields "pid" in
      let* reason = Json.str fields "reason" in
      Some (Worker_killed { worker; pid; reason })
  | Some "corpus_updated" ->
      let* dir = Json.str fields "dir" in
      let* added = Json.int fields "added" in
      let* deduped = Json.int fields "deduped" in
      let* total = Json.int fields "total" in
      Some (Corpus_updated { dir; added; deduped; total })
  | Some "resume_loaded" ->
      let* entries = Json.int fields "entries" in
      let* skipped = Json.int fields "skipped" in
      Some (Resume_loaded { entries; skipped })
  | Some "campaign_interrupted" ->
      let* executed = Json.int fields "executed" in
      let* remaining = Json.int fields "remaining" in
      Some (Campaign_interrupted { executed; remaining })
  | Some "repro_written" ->
      let* pair = Json.str fields "pair" in
      let* fingerprint = Json.str fields "fingerprint" in
      let* seed = Json.int fields "seed" in
      let* file = Json.str fields "file" in
      let* steps_before = Json.int fields "steps_before" in
      let* steps_after = Json.int fields "steps_after" in
      let* switches_before = Json.int fields "switches_before" in
      let* switches_after = Json.int fields "switches_after" in
      let* oracle_runs = Json.int fields "oracle_runs" in
      Some
        (Repro_written
           {
             pair;
             fingerprint;
             seed;
             file;
             steps_before;
             steps_after;
             switches_before;
             switches_after;
             oracle_runs;
           })
  | Some "campaign_finished" ->
      let* wall = Json.num fields "wall" in
      let* trials = Json.int fields "trials" in
      let* cancelled = Json.int fields "cancelled" in
      let* throughput = Json.num fields "throughput" in
      Some (Campaign_finished { wall; trials; cancelled; throughput })
  | _ -> None

let event_of_json line = Option.bind (parse_flat line) event_of_fields

let load_result path =
  let skipped = ref 0 in
  (* a crash mid-write leaves at most one torn line, necessarily the
     last; a line that is not a whole object ends the useful journal
     prefix *)
  let rec go acc = function
    | [] -> List.rev acc
    | "" :: rest -> go acc rest
    | line :: rest -> (
        match check_seal line with
        | Sealed_bad ->
            (* checksum mismatch: corrupted in place, not torn — skip the
               record, keep reading, and let the caller warn *)
            incr skipped;
            go acc rest
        | Sealed_ok | Unsealed -> (
            match event_of_json line with
            | Some ev -> go (ev :: acc) rest
            | None ->
                let n = String.length line in
                if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then List.rev acc
                else (* a whole line, but not an event this reader knows *)
                  go acc rest))
  in
  let events = go [] (Json.read_lines path) in
  (events, !skipped)

let load path = fst (load_result path)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

type sink = Drop | Lines of out_channel | Memory

type t = {
  mutex : Mutex.t;
  mutable seq : int;
  started : float;
  sink : sink;
  mutable mem : event list;  (** newest first; Memory sink only *)
  mutable closed : bool;
}

let make sink =
  {
    mutex = Mutex.create ();
    seq = 0;
    started = Unix.gettimeofday ();
    sink;
    mem = [];
    closed = false;
  }

let null () = make Drop
let memory () = make Memory

let emit t ev =
  match t.sink with
  | Drop -> ()
  | Memory ->
      Mutex.protect t.mutex (fun () ->
          t.seq <- t.seq + 1;
          t.mem <- ev :: t.mem)
  | Lines oc ->
      Mutex.protect t.mutex (fun () ->
          if not t.closed then begin
            t.seq <- t.seq + 1;
            let line =
              Json.seal
                (to_json ~seq:t.seq ~elapsed:(Unix.gettimeofday () -. t.started) ev)
            in
            output_string oc line;
            output_char oc '\n';
            flush oc
          end)

let open_file path =
  let t = make (Lines (open_out path)) in
  emit t (Journal_opened { schema = schema_version });
  t

let events t = Mutex.protect t.mutex (fun () -> List.rev t.mem)

(* [close] shares the emit mutex so a worker mid-write can never race the
   channel teardown, and is idempotent. *)
let close t =
  match t.sink with
  | Lines oc ->
      Mutex.protect t.mutex (fun () ->
          if not t.closed then begin
            t.closed <- true;
            close_out oc
          end)
  | _ -> ()
