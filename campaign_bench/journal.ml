(* What the benchmark reads back from a campaign's sealed JSONL journal
   ([racefuzzer campaign ... --log FILE]): the phase split, per-trial
   records, and when the first real and first harmful trials finished.
   Times are the journal's own [t] (seconds since the journal opened). *)

module E = Rf_campaign.Event_log

type trial = { pair : string; seed : int; wall : float; race : bool; error : bool; steps : int }

type t = {
  bad_lines : int;  (** unparsable or checksum-bad lines *)
  cutoff : bool;  (** [campaign_started] cutoff: resolved pairs stop early *)
  t_last : float;  (** [t] of the last line *)
  phase1_s : float;
  phase2_s : float;  (** [campaign_finished] wall *)
  t_finished : float;  (** [t] of [campaign_finished] *)
  executed : int;  (** [campaign_finished] trials *)
  cancelled : int;
  waves : int;
  repro_s : float;  (** [campaign_finished] to the last [repro_written] *)
  first_real : float option;
  first_harmful : float option;
  trials : trial list;  (** [trial_finished] records, journal order *)
  crashed : int;
  exhausted : int;
  resolved : (string * int) list;  (** pair, at_trial when it resolved *)
}

(* "(A, B)" -> the order-free key of {!Gen.pair_key}.  Site labels may
   contain parentheses, so split at the first ", " outside them. *)
let pair_key s =
  let n = String.length s in
  let inner = if n >= 2 && s.[0] = '(' && s.[n - 1] = ')' then String.sub s 1 (n - 2) else s in
  let m = String.length inner in
  let rec split i depth =
    if i + 1 >= m then inner
    else
      match inner.[i] with
      | '(' -> split (i + 1) (depth + 1)
      | ')' -> split (i + 1) (depth - 1)
      | ',' when depth = 0 && inner.[i + 1] = ' ' ->
          Gen.pair_key (String.sub inner 0 i) (String.sub inner (i + 2) (m - i - 2))
      | _ -> split (i + 1) depth
  in
  split 0 0

let load path : t =
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let bad = ref 0 in
  let events =
    List.filter_map
      (fun l ->
        match (E.check_seal l, E.parse_flat l) with
        | E.Sealed_ok, Some fields -> Some fields
        | _ ->
            incr bad;
            None)
      (List.rev !lines)
  in
  let str f k = match List.assoc_opt k f with Some (E.S s) -> s | _ -> "" in
  let int f k = match List.assoc_opt k f with Some (E.I n) -> n | _ -> 0 in
  let bool f k = match List.assoc_opt k f with Some (E.B b) -> b | _ -> false in
  let num f k =
    match List.assoc_opt k f with
    | Some (E.F x) -> x
    | Some (E.I n) -> float_of_int n
    | _ -> 0.0
  in
  let j =
    ref
      {
        bad_lines = 0;
        cutoff = false;
        t_last = 0.0;
        phase1_s = 0.0;
        phase2_s = 0.0;
        t_finished = 0.0;
        executed = 0;
        cancelled = 0;
        waves = 0;
        repro_s = 0.0;
        first_real = None;
        first_harmful = None;
        trials = [];
        crashed = 0;
        exhausted = 0;
        resolved = [];
      }
  in
  let first cur t = match cur with None -> Some t | some -> some in
  List.iter
    (fun f ->
      let t = num f "t" in
      let s = !j in
      j :=
        match str f "ev" with
        | "campaign_started" -> { s with cutoff = bool f "cutoff" }
        | "phase1_finished" -> { s with phase1_s = num f "wall" }
        | "wave_started" -> { s with waves = s.waves + 1 }
        | "trial_finished" ->
            let tr =
              {
                pair = str f "pair";
                seed = int f "seed";
                wall = num f "wall";
                race = bool f "race";
                error = bool f "error";
                steps = int f "steps";
              }
            in
            {
              s with
              trials = tr :: s.trials;
              first_real = (if tr.race then first s.first_real t else s.first_real);
              first_harmful =
                (if tr.race && tr.error then first s.first_harmful t else s.first_harmful);
            }
        | "trial_crashed" -> { s with crashed = s.crashed + 1 }
        | "trial_exhausted" -> { s with exhausted = s.exhausted + 1 }
        | "pair_resolved" -> { s with resolved = (str f "pair", int f "at_trial") :: s.resolved }
        | "campaign_finished" ->
            {
              s with
              phase2_s = num f "wall";
              t_finished = t;
              executed = int f "trials";
              cancelled = int f "cancelled";
            }
        | "repro_written" -> { s with repro_s = t -. s.t_finished }
        | _ -> s)
    events;
  let s = !j in
  {
    s with
    bad_lines = !bad;
    t_last = List.fold_left (fun acc f -> Float.max acc (num f "t")) 0.0 events;
    trials = List.rev s.trials;
    resolved = List.rev s.resolved;
  }

(* The trials the campaign's verdicts rest on.  With cutoff, a resolved
   pair's trial list is cut at the first trial, in seed order, that
   created its race and failed; trials past that ran speculatively and
   were discarded, and how many ran depends on timing, so they are left
   out of anything that must be deterministic.  (The journal's own
   at_trial is the cut known when the pair first resolved, which a
   late-finishing earlier trial can still lower.) *)
let logical_trials j =
  let resolved = Hashtbl.create 16 in
  if j.cutoff then
    List.iter (fun (p, _) -> Hashtbl.replace resolved (pair_key p) ()) j.resolved;
  let kept = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key () ->
      let mine =
        List.sort
          (fun a b -> compare a.seed b.seed)
          (List.filter (fun tr -> pair_key tr.pair = key) j.trials)
      in
      let rec keep = function
        | [] -> ()
        | tr :: rest ->
            Hashtbl.replace kept (key, tr.seed) ();
            if not (tr.race && tr.error) then keep rest
      in
      keep mine)
    resolved;
  List.filter
    (fun tr ->
      let key = pair_key tr.pair in
      (not (Hashtbl.mem resolved key)) || Hashtbl.mem kept (key, tr.seed))
    j.trials

module SS = Set.Make (String)

let real j =
  List.fold_left (fun acc tr -> if tr.race then SS.add (pair_key tr.pair) acc else acc) SS.empty j.trials

let harmful j =
  List.fold_left
    (fun acc tr -> if tr.race && tr.error then SS.add (pair_key tr.pair) acc else acc)
    SS.empty j.trials
