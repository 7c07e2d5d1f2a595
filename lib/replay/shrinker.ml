type stats = {
  sh_steps_before : int;
  sh_steps_after : int;
  sh_switches_before : int;
  sh_switches_after : int;
  sh_oracle_runs : int;
}

let pp_stats ppf s =
  Fmt.pf ppf "steps %d -> %d, switches %d -> %d (%d oracle runs)"
    s.sh_steps_before s.sh_steps_after s.sh_switches_before s.sh_switches_after
    s.sh_oracle_runs

(* The shrink order: fewer decisions first, fewer preemptions second.
   Every acceptance is strict under this measure, which is what makes the
   search terminate and {!minimize} idempotent at its fixpoint. *)
let measure s = (Schedule.length s, Schedule.switches s)

let prefix sched k =
  Schedule.with_steps sched (Array.sub sched.Schedule.steps 0 k)

(* Shortest reproducing prefix of a validated [exact] schedule, by binary
   search.  The returned prefix is always one the oracle confirmed (or
   [exact] itself): [hi] starts validated and only moves to validated
   midpoints, so fuel exhaustion degrades minimality, never soundness. *)
let truncate try_oracle exact =
  let n = Schedule.length exact in
  if n = 0 then exact
  else
    match try_oracle (prefix exact 0) with
    | Some _ -> prefix exact 0
    | None ->
        let rec go lo hi =
          if hi - lo <= 1 then prefix exact hi
          else
            let mid = (lo + hi) / 2 in
            match try_oracle (prefix exact mid) with
            | Some _ -> go lo mid
            | None -> go mid hi
        in
        go 0 n

(* Zeller–Hildebrandt ddmin, complement-deletion form: split into [g]
   chunks, try dropping each chunk; on success restart at coarser
   granularity, otherwise refine until chunks are single steps. *)
let ddmin try_oracle fuel_left sched =
  let current = ref sched in
  let g = ref 2 in
  let running = ref true in
  while !running && fuel_left () do
    let steps = (!current).Schedule.steps in
    let n = Array.length steps in
    if n < 2 || !g > n then running := false
    else begin
      let g' = min !g n in
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < g' && fuel_left () do
        let lo = !i * n / g' and hi = (!i + 1) * n / g' in
        (if hi > lo then
           let cand =
             Schedule.with_steps !current
               (Array.append (Array.sub steps 0 lo) (Array.sub steps hi (n - hi)))
           in
           match try_oracle cand with
           | Some _ ->
               current := cand;
               found := true
           | None -> ());
        incr i
      done;
      if !found then g := max (!g - 1) 2
      else if g' >= n then running := false
      else g := min (2 * g') n
    end
  done;
  !current

(* Maximal same-tid blocks as (start, len) pairs, in order. *)
let thread_runs (steps : Schedule.step array) =
  let n = Array.length steps in
  let out = ref [] in
  let start = ref 0 in
  for i = 1 to n do
    if i = n || steps.(i).Schedule.st_tid <> steps.(!start).Schedule.st_tid then begin
      out := (!start, i - !start) :: !out;
      start := i
    end
  done;
  Array.of_list (List.rev !out)

(* Context-switch coalescing (the dejafu move): in a run pattern
   A B A, hoist the second A-block next to the first (A A B), which
   merges the two A-blocks and removes at least two preemptions.  Step
   count is unchanged, so each acceptance strictly shrinks the switch
   component of the measure. *)
let coalesce try_oracle fuel_left sched =
  let current = ref sched in
  let progress = ref true in
  while !progress && fuel_left () do
    progress := false;
    let steps = (!current).Schedule.steps in
    let rs = thread_runs steps in
    let nr = Array.length rs in
    let tid_of (start, _) = steps.(start).Schedule.st_tid in
    let i = ref 0 in
    while (not !progress) && !i + 2 < nr && fuel_left () do
      (if tid_of rs.(!i) = tid_of rs.(!i + 2) then begin
         let s1, l1 = rs.(!i + 1) and s2, l2 = rs.(!i + 2) in
         let cand_steps =
           Array.concat
             [
               Array.sub steps 0 s1;
               Array.sub steps s2 l2;
               Array.sub steps s1 l1;
               Array.sub steps (s2 + l2) (Array.length steps - s2 - l2);
             ]
         in
         let cand = Schedule.with_steps !current cand_steps in
         if Schedule.switches cand < Schedule.switches !current then
           match try_oracle cand with
           | Some _ ->
               current := cand;
               progress := true
           | None -> ()
       end);
      incr i
    done
  done;
  !current

let minimize ?(fuel = 500) ~oracle (sched0 : Schedule.t) :
    (Schedule.t * stats) option =
  let runs = ref 0 in
  let fuel_left () = !runs < fuel in
  let try_oracle cand =
    if not (fuel_left ()) then None
    else begin
      incr runs;
      oracle cand
    end
  in
  let finish best =
    ( best,
      {
        sh_steps_before = Schedule.length sched0;
        sh_steps_after = Schedule.length best;
        sh_switches_before = Schedule.switches sched0;
        sh_switches_after = Schedule.switches best;
        sh_oracle_runs = !runs;
      } )
  in
  match try_oracle sched0 with
  | None -> None
  | Some exact0 ->
      (* [best] is invariantly an exact prefix of a witnessed reproducing
         run — the only thing we ever return. *)
      let best = ref (truncate try_oracle exact0) in
      let improved = ref true in
      while !improved && fuel_left () do
        improved := false;
        let edited = coalesce try_oracle fuel_left (ddmin try_oracle fuel_left !best) in
        if edited != !best then
          (* Re-record the edited (possibly inexact) schedule into a real
             run, then re-truncate so the round's winner is exact again. *)
          match try_oracle edited with
          | None -> ()
          | Some exact ->
              let cand = truncate try_oracle exact in
              if measure cand < measure !best then begin
                best := cand;
                improved := true
              end
      done;
      (* Fuel can run out before [truncate] confirms a short prefix of
         the re-recorded run; the input, which the oracle confirmed, is
         then the better answer. *)
      Some (finish (if measure !best > measure sched0 then sched0 else !best))
