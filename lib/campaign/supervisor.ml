(* Worker supervision: run a fixed fleet of worker bodies on domains,
   detect crashes, respawn with exponential backoff, give up after a
   budget.

   Slot 0 runs on the calling domain and every other slot on a domain of
   its own; each runs its first attempt there.  Each respawn of a
   multi-slot fleet runs on a freshly spawned child domain, so a
   respawned worker starts with clean domain-local state.  A crash is an
   exception escaping the worker body (in OCaml a domain cannot die any
   other way short of taking the whole process with it). *)

type policy = {
  max_respawns : int;
  backoff_base : float;
  backoff_factor : float;
  backoff_max : float;
  quarantine_crashes : int;
}

let default_policy =
  {
    max_respawns = 3;
    backoff_base = 0.01;
    backoff_factor = 2.0;
    backoff_max = 0.5;
    quarantine_crashes = 3;
  }

let backoff_delay policy attempt =
  min policy.backoff_max
    (policy.backoff_base *. (policy.backoff_factor ** float_of_int attempt))

type outcome = { crashes : int; gave_up : int }

let nothing1 ~domain:_ = ()
let nothing_crash ~domain:_ ~attempt:_ _ = ()
let nothing_respawn ~domain:_ ~attempt:_ ~backoff:_ = ()

(* One attempt, on a fresh child domain (clean domain-local state) or
   inline on the slot's domain.  First attempts run inline, and so do all
   attempts of a single-worker fleet.  An idle domain is not free: every
   minor collection is a stop-the-world synchronization of all domains,
   and a domain blocked in a join takes part through its backup thread,
   which must be scheduled.  On a 2-vCPU host four blocked domains beside
   a hybrid phase 1 slow it by ~22%, so the fleet keeps no domain parked
   behind a working one — not even the caller's.  Crash/respawn semantics
   are identical either way; the engine resets all per-run domain-local
   state itself, so where an attempt runs can never affect what it
   computes. *)
let spawned_attempt body ~domain =
  Domain.join
    (Domain.spawn (fun () ->
         match body ~domain with () -> Ok () | exception e -> Error e))

let inline_attempt body ~domain =
  match body ~domain with () -> Ok () | exception e -> Error e

let run_slot ~respawn ~policy ~on_crash ~on_respawn ~on_give_up ~domain body =
  let rec go attempt crashes =
    let run_attempt = if attempt = 0 then inline_attempt else respawn in
    match (run_attempt body ~domain : (unit, exn) result) with
    | Ok () -> (crashes, false)
    | Error e ->
        on_crash ~domain ~attempt e;
        if attempt >= policy.max_respawns then begin
          on_give_up ~domain;
          (crashes + 1, true)
        end
        else begin
          let backoff = backoff_delay policy attempt in
          if backoff > 0.0 then Unix.sleepf backoff;
          on_respawn ~domain ~attempt:(attempt + 1) ~backoff;
          go (attempt + 1) (crashes + 1)
        end
  in
  go 0 0

let supervise ?(policy = default_policy) ?(on_crash = nothing_crash)
    ?(on_respawn = nothing_respawn) ?(on_give_up = nothing1) ~domains body =
  let respawn = if domains = 1 then inline_attempt else spawned_attempt in
  let slot domain () =
    run_slot ~respawn ~policy ~on_crash ~on_respawn ~on_give_up ~domain body
  in
  let others =
    List.init (max 0 (domains - 1)) (fun i -> Domain.spawn (slot (i + 1)))
  in
  let first = if domains >= 1 then [ slot 0 () ] else [] in
  let results = first @ List.map Domain.join others in
  {
    crashes = List.fold_left (fun acc (c, _) -> acc + c) 0 results;
    gave_up =
      List.fold_left (fun acc (_, g) -> acc + if g then 1 else 0) 0 results;
  }
