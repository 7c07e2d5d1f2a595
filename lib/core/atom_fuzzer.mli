(** Atomicity-directed random testing: phase 2 for
    {!Rf_detect.Atomicity} candidates, completing the trio of problem
    classes the paper's §1 names (races, atomicity violations, deadlocks).

    The strategy holds a thread postponed between the two halves of its
    split transaction until the interfering write is pending, then lands
    the write in the gap — an event-level witness that the transaction was
    not serializable.  Harmfulness surfaces as with races: through model
    assertions and uncaught exceptions in the subject program. *)

open Rf_runtime

type hit = { ah_candidate : Rf_detect.Atomicity.candidate; ah_step : int }

type report = {
  mutable ahits : hit list;
  mutable apostponed : int;
  mutable aevictions : int;
}

val fresh_report : unit -> report
val violation_created : report -> bool

val strategy :
  ?postpone_timeout:int option ->
  candidate:Rf_detect.Atomicity.candidate ->
  report:report ->
  unit ->
  Strategy.t

type candidate_result = {
  ac_candidate : Rf_detect.Atomicity.candidate;
  ac_trials : int;
  ac_violation_trials : int;
  ac_error_trials : int;  (** violating trials with an uncaught exception *)
  ac_probability : float;
  ac_seed : int option;
  ac_error_seed : int option;
}

val is_real : candidate_result -> bool
val is_harmful : candidate_result -> bool

val phase1 :
  ?seeds:int list ->
  (unit -> unit) ->
  Rf_detect.Atomicity.candidate list
(** One fresh detector per execution (section state is per-run), results
    deduplicated. *)

val fuzz_candidate :
  ?seeds:int list ->
  program:(unit -> unit) ->
  Rf_detect.Atomicity.candidate ->
  candidate_result

val analyze :
  ?phase1_seeds:int list ->
  ?seeds_per_candidate:int list ->
  (unit -> unit) ->
  candidate_result list
