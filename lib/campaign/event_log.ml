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
  | Phase1_recorded of {
      events : int;
      bytes : int;
      shards : int;
      record_wall : float;
      detect_wall : float;
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
  | Traces_saved of { dir : string; count : int; bytes : int }
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
(* JSON rendering (hand-rolled: no JSON dependency in the toolchain)   *)

type jv = I of int | F of float | S of string | B of bool | Null

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jv_to_string = function
  | I n -> string_of_int n
  | F x -> Printf.sprintf "%.6f" x
  | S s -> Printf.sprintf "\"%s\"" (escape s)
  | B b -> if b then "true" else "false"
  | Null -> "null"

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
  | Phase1_recorded { events; bytes; shards; record_wall; detect_wall } ->
      ( "phase1_recorded",
        [
          ("events", I events);
          ("bytes", I bytes);
          ("shards", I shards);
          ("record_wall", F record_wall);
          ("detect_wall", F detect_wall);
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
  | Traces_saved { dir; count; bytes } ->
      ( "traces_saved",
        [ ("dir", S dir); ("count", I count); ("bytes", I bytes) ] )
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
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "{\"seq\":%d,\"t\":%.6f,\"ev\":\"%s\"" seq elapsed name);
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf ",\"%s\":%s" k (jv_to_string v)))
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON parsing: exactly the flat-object subset [to_json] emits.       *)

exception Parse_error

let parse_object (line : string) : (string * jv) list =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise Parse_error else line.[!pos] in
  let advance () = incr pos in
  let expect c = if peek () <> c then raise Parse_error else advance () in
  let skip_ws () =
    while !pos < n && (peek () = ' ' || peek () = '\t') do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'u' ->
              if !pos + 4 >= n then raise Parse_error;
              let code =
                try int_of_string ("0x" ^ String.sub line (!pos + 1) 4)
                with _ -> raise Parse_error
              in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_string buf (Printf.sprintf "\\u%04x" code)
          | _ -> raise Parse_error);
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_value () =
    match peek () with
    | '"' -> S (parse_string ())
    | 't' ->
        pos := !pos + 4;
        if !pos > n then raise Parse_error;
        B true
    | 'f' ->
        pos := !pos + 5;
        if !pos > n then raise Parse_error;
        B false
    | 'n' ->
        pos := !pos + 4;
        if !pos > n then raise Parse_error;
        Null
    | _ ->
        let start = !pos in
        let is_float = ref false in
        while
          !pos < n
          &&
          match line.[!pos] with
          | '0' .. '9' | '-' | '+' -> true
          | '.' | 'e' | 'E' ->
              is_float := true;
              true
          | _ -> false
        do
          advance ()
        done;
        let s = String.sub line start (!pos - start) in
        if s = "" then raise Parse_error
        else if !is_float then
          F (try float_of_string s with _ -> raise Parse_error)
        else I (try int_of_string s with _ -> raise Parse_error)
  in
  expect '{';
  skip_ws ();
  if peek () = '}' then []
  else begin
    let fields = ref [] in
    let rec members () =
      skip_ws ();
      let k = parse_string () in
      skip_ws ();
      expect ':';
      skip_ws ();
      let v = parse_value () in
      fields := (k, v) :: !fields;
      skip_ws ();
      match peek () with
      | ',' ->
          advance ();
          members ()
      | '}' -> advance ()
      | _ -> raise Parse_error
    in
    members ();
    List.rev !fields
  end

let str_f fields k = match List.assoc_opt k fields with Some (S s) -> Some s | _ -> None
let int_f fields k = match List.assoc_opt k fields with Some (I n) -> Some n | _ -> None
let bool_f fields k = match List.assoc_opt k fields with Some (B b) -> Some b | _ -> None

let float_f fields k =
  match List.assoc_opt k fields with
  | Some (F x) -> Some x
  | Some (I n) -> Some (float_of_int n)
  | _ -> None

let opt_int_f fields k =
  match List.assoc_opt k fields with
  | Some (I n) -> Some (Some n)
  | Some Null -> Some None
  | _ -> None

let event_of_fields fields : event option =
  let ( let* ) = Option.bind in
  match str_f fields "ev" with
  | Some "journal_opened" ->
      let* schema = int_f fields "schema" in
      Some (Journal_opened { schema })
  | Some "campaign_started" ->
      let* domains = int_f fields "domains" in
      let* base_trials = int_f fields "base_trials" in
      let* budget = opt_int_f fields "budget" in
      let* cutoff = bool_f fields "cutoff" in
      Some (Campaign_started { domains; base_trials; budget; cutoff })
  | Some "phase1_finished" ->
      let* potential = int_f fields "potential" in
      let* wall = float_f fields "wall" in
      (* degradation fields arrived in v3; default for older journals.
         The v5 detector identity and miss bound fields are ignored. *)
      let degraded = Option.value ~default:false (bool_f fields "degraded") in
      let level = Option.value ~default:"full" (str_f fields "level") in
      Some (Phase1_finished { potential; wall; degraded; level })
  | Some "phase1_recorded" ->
      let* events = int_f fields "events" in
      let* bytes = int_f fields "bytes" in
      let* shards = int_f fields "shards" in
      let* record_wall = float_f fields "record_wall" in
      let* detect_wall = float_f fields "detect_wall" in
      Some (Phase1_recorded { events; bytes; shards; record_wall; detect_wall })
  | Some "wave_started" ->
      let* wave = int_f fields "wave" in
      let* tasks = int_f fields "tasks" in
      Some (Wave_started { wave; tasks })
  | Some "trial_started" ->
      let* pair = str_f fields "pair" in
      let* seed = int_f fields "seed" in
      let* domain = int_f fields "domain" in
      Some (Trial_started { pair; seed; domain })
  | Some "trial_finished" ->
      let* pair = str_f fields "pair" in
      let* seed = int_f fields "seed" in
      let* domain = int_f fields "domain" in
      let* race = bool_f fields "race" in
      let* error = bool_f fields "error" in
      let* deadlock = bool_f fields "deadlock" in
      let* steps = int_f fields "steps" in
      let* switches = int_f fields "switches" in
      let* exns = int_f fields "exns" in
      let* wall = float_f fields "wall" in
      let degraded = Option.value ~default:false (bool_f fields "degraded") in
      let level = Option.value ~default:"full" (str_f fields "level") in
      let trigger = Option.value ~default:"" (str_f fields "trigger") in
      let evicted = Option.value ~default:0 (int_f fields "evicted") in
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
      let* pair = str_f fields "pair" in
      let* seed = int_f fields "seed" in
      let* domain = int_f fields "domain" in
      let* exn_ = str_f fields "exn" in
      let* backtrace = str_f fields "backtrace" in
      Some (Trial_crashed { pair; seed; domain; exn_; backtrace })
  | Some "trial_exhausted" ->
      let* pair = str_f fields "pair" in
      let* seed = int_f fields "seed" in
      let* domain = int_f fields "domain" in
      let* reason = str_f fields "reason" in
      let* steps = int_f fields "steps" in
      let* wall = float_f fields "wall" in
      Some (Trial_exhausted { pair; seed; domain; reason; steps; wall })
  | Some "pair_filtered" ->
      let* pair = str_f fields "pair" in
      let* reason = str_f fields "reason" in
      Some (Pair_filtered { pair; reason })
  | Some "static_classified" ->
      let* universe = int_f fields "universe" in
      let* universe_impossible = int_f fields "universe_impossible" in
      let* frontier = int_f fields "frontier" in
      let* likely = int_f fields "likely" in
      let* unknown = int_f fields "unknown" in
      let* impossible = int_f fields "impossible" in
      let* filtered = int_f fields "filtered" in
      let* wall = float_f fields "wall" in
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
      let* pair = str_f fields "pair" in
      let* at_trial = int_f fields "at_trial" in
      Some (Pair_resolved { pair; at_trial })
  | Some "pair_quarantined" ->
      let* pair = str_f fields "pair" in
      let* crashes = int_f fields "crashes" in
      let* at_trial = int_f fields "at_trial" in
      Some (Pair_quarantined { pair; crashes; at_trial })
  | Some "trials_cancelled" ->
      let* pair = str_f fields "pair" in
      let* count = int_f fields "count" in
      Some (Trials_cancelled { pair; count })
  | Some "budget_granted" ->
      let* pair = str_f fields "pair" in
      let* extra = int_f fields "extra" in
      Some (Budget_granted { pair; extra })
  | Some "worker_crashed" ->
      let* domain = int_f fields "domain" in
      let* attempt = int_f fields "attempt" in
      let* exn_ = str_f fields "exn" in
      Some (Worker_crashed { domain; attempt; exn_ })
  | Some "worker_respawned" ->
      let* domain = int_f fields "domain" in
      let* attempt = int_f fields "attempt" in
      let* backoff = float_f fields "backoff" in
      Some (Worker_respawned { domain; attempt; backoff })
  | Some "worker_gave_up" ->
      let* domain = int_f fields "domain" in
      Some (Worker_gave_up { domain })
  | Some "worker_spawned" ->
      let* worker = int_f fields "worker" in
      let* pid = int_f fields "pid" in
      Some (Worker_spawned { worker; pid })
  | Some "worker_killed" ->
      let* worker = int_f fields "worker" in
      let* pid = int_f fields "pid" in
      let* reason = str_f fields "reason" in
      Some (Worker_killed { worker; pid; reason })
  | Some "traces_saved" ->
      let* dir = str_f fields "dir" in
      let* count = int_f fields "count" in
      let* bytes = int_f fields "bytes" in
      Some (Traces_saved { dir; count; bytes })
  | Some "corpus_updated" ->
      let* dir = str_f fields "dir" in
      let* added = int_f fields "added" in
      let* deduped = int_f fields "deduped" in
      let* total = int_f fields "total" in
      Some (Corpus_updated { dir; added; deduped; total })
  | Some "resume_loaded" ->
      let* entries = int_f fields "entries" in
      let* skipped = int_f fields "skipped" in
      Some (Resume_loaded { entries; skipped })
  | Some "campaign_interrupted" ->
      let* executed = int_f fields "executed" in
      let* remaining = int_f fields "remaining" in
      Some (Campaign_interrupted { executed; remaining })
  | Some "repro_written" ->
      let* pair = str_f fields "pair" in
      let* fingerprint = str_f fields "fingerprint" in
      let* seed = int_f fields "seed" in
      let* file = str_f fields "file" in
      let* steps_before = int_f fields "steps_before" in
      let* steps_after = int_f fields "steps_after" in
      let* switches_before = int_f fields "switches_before" in
      let* switches_after = int_f fields "switches_after" in
      let* oracle_runs = int_f fields "oracle_runs" in
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
      let* wall = float_f fields "wall" in
      let* trials = int_f fields "trials" in
      let* cancelled = int_f fields "cancelled" in
      let* throughput = float_f fields "throughput" in
      Some (Campaign_finished { wall; trials; cancelled; throughput })
  | _ -> None

let event_of_json line =
  match parse_object line with
  | fields -> event_of_fields fields
  | exception Parse_error -> None

(* ------------------------------------------------------------------ *)
(* Per-line checksums.

   Each journal line is sealed with an FNV-1a-64 hex digest of the line
   as rendered *without* the checksum, appended as a final "crc" field.
   Detects the silent-corruption cases a torn-tail check cannot: a
   partially overwritten middle line, filesystem bit rot, a hand-edited
   journal.  Unsealed lines (v2 and earlier journals) verify as absent,
   not bad, so old journals still load as observability streams. *)

let fnv_hex = Rf_util.Fnv.hex63

let crc_marker = ",\"crc\":\""
(* marker + 16 hex digits + closing quote and brace *)
let crc_suffix_len = String.length crc_marker + 16 + 2

let seal line =
  let n = String.length line in
  if n = 0 || line.[n - 1] <> '}' then line
  else
    String.sub line 0 (n - 1) ^ crc_marker ^ fnv_hex line ^ "\"}"

type seal_status = Sealed_ok | Sealed_bad | Unsealed

let check_seal line =
  let n = String.length line in
  if n < crc_suffix_len + 2 then Unsealed
  else if
    String.sub line (n - crc_suffix_len) (String.length crc_marker)
    <> crc_marker
    || line.[n - 1] <> '}'
    || line.[n - 2] <> '"'
  then Unsealed
  else
    let crc = String.sub line (n - 18) 16 in
    let original = String.sub line 0 (n - crc_suffix_len) ^ "}" in
    if fnv_hex original = crc then Sealed_ok else Sealed_bad

(* The flat-object JSON codec, exposed so sibling artifacts (the corpus
   index) can share the journal's exact line format and seal instead of
   growing a second hand-rolled parser. *)

let parse_flat line =
  match parse_object line with
  | fields -> Some fields
  | exception Parse_error -> None

let render_flat fields =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (escape k) (jv_to_string v)))
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let load_result path =
  let ic = open_in path in
  let events = ref [] in
  let skipped = ref 0 in
  (try
     let torn = ref false in
     while not !torn do
       let line = input_line ic in
       (* a crash mid-write leaves at most one torn line, necessarily the
          last complete-line-less tail; a line that fails to parse as a
          whole object ends the useful journal prefix *)
       if String.length line = 0 then ()
       else
         match check_seal line with
         | Sealed_bad ->
             (* checksum mismatch: corrupted in place, not torn — skip
                the record, keep reading, and let the caller warn *)
             incr skipped
         | Sealed_ok | Unsealed -> (
             match event_of_json line with
             | Some ev -> events := ev :: !events
             | None ->
                 if
                   String.length line < 2
                   || line.[0] <> '{'
                   || line.[String.length line - 1] <> '}'
                 then torn := true
                 (* else: well-formed object of an unknown/newer event — skip *))
     done
   with End_of_file -> ());
  close_in ic;
  (List.rev !events, !skipped)

let load path = fst (load_result path)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

type sink = Drop | Lines of out_channel * bool (* close channel on close *) | Memory

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
let to_channel oc = make (Lines (oc, false))

let open_file path =
  let t = make (Lines (open_out path, true)) in
  t

let memory () = make Memory

let emit t ev =
  match t.sink with
  | Drop -> ()
  | Memory ->
      Mutex.protect t.mutex (fun () ->
          t.seq <- t.seq + 1;
          t.mem <- ev :: t.mem)
  | Lines (oc, _) ->
      Mutex.protect t.mutex (fun () ->
          if not t.closed then begin
            t.seq <- t.seq + 1;
            let line =
              seal (to_json ~seq:t.seq ~elapsed:(Unix.gettimeofday () -. t.started) ev)
            in
            output_string oc line;
            output_char oc '\n';
            flush oc
          end)

let open_file path =
  let t = open_file path in
  emit t (Journal_opened { schema = schema_version });
  t

let events t = Mutex.protect t.mutex (fun () -> List.rev t.mem)

let flush_log t =
  match t.sink with
  | Lines (oc, _) ->
      Mutex.protect t.mutex (fun () -> if not t.closed then flush oc)
  | _ -> ()

(* [close] shares the emit mutex so a worker mid-write can never race the
   channel teardown, and is idempotent. *)
let close t =
  match t.sink with
  | Lines (oc, close_ch) ->
      Mutex.protect t.mutex (fun () ->
          if not t.closed then begin
            t.closed <- true;
            if close_ch then close_out oc else flush oc
          end)
  | _ -> ()
