(* Deterministic fault injection for campaign robustness testing.

   Chaos must never change *what* a campaign computes, only how bumpy the
   road there is.  Two rules make that hold:

   - Faults that feed back into results (injected harness crashes, stalls)
     are pure functions of (chaos seed, pair label, trial seed) — the same
     trial misbehaves identically on every run, every domain count, and
     across kill/resume, so quarantine decisions and fingerprints are
     reproducible.

   - Faults that only affect liveness (worker deaths) are keyed off a
     global pop counter.  They perturb *which domain* runs a task and force
     the supervisor's respawn/requeue path, but since aggregation is
     domain-agnostic the report is unchanged. *)

type plan = {
  c_seed : int;
  c_crash_rate : float;
  c_stall_rate : float;
  c_stall_seconds : float;
  c_budget_rate : float;
  c_trial_deadline : float option;
  c_death_every : int option;
  c_max_deaths : int;
  c_stop_after : int option;
  (* real-process faults, keyed by the supervisor's assignment counter
     (1-based): a requeued task gets a fresh assignment number, so a fault
     fires once instead of chasing its own retry forever *)
  c_kill_assignment : int option;
  c_torn_frame : int option;
  c_hang_assignment : int option;
  (* service-tier faults, keyed by the serve loop's own counters: the Nth
     revalidated item or the Nth cycle of the current process run *)
  c_die_reval : int option;
  c_fail_reval : int option;
  c_torn_index_cycle : int option;
  c_torn_ledger_cycle : int option;
  c_watch_storm : int option;
}

let plan ?(crash_rate = 0.0) ?(stall_rate = 0.0) ?(stall_seconds = 0.05)
    ?(budget_rate = 0.0) ?trial_deadline ?death_every ?(max_deaths = 2)
    ?stop_after ?kill_assignment ?torn_frame ?hang_assignment ?die_reval
    ?fail_reval ?torn_index_cycle ?torn_ledger_cycle ?watch_storm seed =
  {
    c_seed = seed;
    c_crash_rate = crash_rate;
    c_stall_rate = stall_rate;
    c_stall_seconds = stall_seconds;
    c_budget_rate = budget_rate;
    c_trial_deadline = trial_deadline;
    c_death_every = (match death_every with Some n when n <= 0 -> None | d -> d);
    c_max_deaths = max_deaths;
    c_stop_after = stop_after;
    c_kill_assignment = kill_assignment;
    c_torn_frame = torn_frame;
    c_hang_assignment = hang_assignment;
    c_die_reval = die_reval;
    c_fail_reval = fail_reval;
    c_torn_index_cycle = torn_index_cycle;
    c_torn_ledger_cycle = torn_ledger_cycle;
    c_watch_storm = watch_storm;
  }

let default seed =
  plan ~crash_rate:0.08 ~stall_rate:0.04 ~stall_seconds:0.05 ~budget_rate:0.05
    ~trial_deadline:2.0 ~death_every:25 seed

exception Injected_crash of string
exception Injected_death

(* FNV-1a over the chaos seed, a salt and the task identity.  Cheap, well
   mixed, and — unlike Random — shared-nothing and order-independent. *)
let hash plan ~salt ~label ~seed =
  let open Rf_util.Fnv in
  let h = fold_int63 basis63 plan.c_seed in
  let h = fold_int63 h salt in
  let h = fold_string63 h label in
  mask63 (fold_int63 h seed)

(* Map a hash to [0, 1) with 30 bits of precision — plenty for rates. *)
let unit_float h = float_of_int (h land 0x3FFFFFFF) /. 1073741824.0

let crashes plan ~label ~seed =
  plan.c_crash_rate > 0.0
  && unit_float (hash plan ~salt:0x1 ~label ~seed) < plan.c_crash_rate

let stalls plan ~label ~seed =
  plan.c_stall_rate > 0.0
  && unit_float (hash plan ~salt:0x2 ~label ~seed) < plan.c_stall_rate

(* Budget trips share the crash/stall determinism contract: whether a
   trial's governor is forced down the degradation ladder is a pure
   function of (chaos seed, pair label, trial seed), so kill/resume and
   cross-domain fingerprints cover degraded trials reproducibly. *)
let trips_budget plan ~label ~seed =
  plan.c_budget_rate > 0.0
  && unit_float (hash plan ~salt:0x3 ~label ~seed) < plan.c_budget_rate

(* Worker-death state: one counter for pops, one for deaths granted. *)
type state = { pops : int Atomic.t; deaths : int Atomic.t }

let state () = { pops = Atomic.make 0; deaths = Atomic.make 0 }

let kills_worker plan st =
  match plan.c_death_every with
  | None -> false
  | Some every ->
      let n = Atomic.fetch_and_add st.pops 1 + 1 in
      if n mod every <> 0 then false
      else
        (* Grant at most [c_max_deaths] deaths, racing grants resolved by
           the atomic counter itself. *)
        let granted = Atomic.fetch_and_add st.deaths 1 in
        if granted < plan.c_max_deaths then true
        else begin
          Atomic.decr st.deaths;
          false
        end

let deaths st = Atomic.get st.deaths
