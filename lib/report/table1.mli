(** Regeneration of the paper's Table 1: per workload, the runtime of
    normal / hybrid-detection / RaceFuzzer execution, hybrid's potential
    race count, RaceFuzzer's confirmed-real count, known races, exception
    pairs (RaceFuzzer vs the simple random scheduler), and the empirical
    race-creation probability estimated over 100 trials per pair. *)

type row = {
  r_name : string;
  r_sloc : int;
  r_time_normal : float;  (** seconds, mean; negative = not measured *)
  r_time_hybrid : float;
  r_time_rf : float;
  r_potential : int;
  r_real : int;
  r_known : int option;
  r_exceptions_rf : int;
  r_exceptions_simple : int;
  r_probability : float;  (** NaN when no real race *)
  r_steps_normal : float;
  r_steps_hybrid : float;
}

type config = {
  phase1_seeds : int list;
  seeds_per_pair : int list;
  baseline_seeds : int list;
  timing_seeds : int list;
}

val default_config : config
(** The paper's protocol: 100 seeds per pair. *)

val quick_config : config
(** Reduced trials for tests and demos. *)

val row_of_workload : ?config:config -> Rf_workloads.Workload.t -> row
val generate : ?config:config -> ?workloads:Rf_workloads.Workload.t list -> unit -> row list
val render : Format.formatter -> row list -> unit
