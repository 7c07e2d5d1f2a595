(** Worker supervision for campaign domains: detect a crashed worker,
    respawn it with exponential backoff up to a retry budget, and requeue
    whatever it had in flight (via the [on_crash] hook — the caller owns
    the in-flight bookkeeping).

    Each worker slot is supervised independently.  Slot 0 runs on the
    calling domain and every other slot on a domain of its own, first
    attempt included, so no domain waits idle beside the workers.  Every
    respawn of a multi-slot fleet runs on a freshly spawned domain, so a
    respawned worker starts with clean domain-local state — which,
    combined with the engine resetting its per-run counters, is why
    worker deaths cannot perturb trial results, only who computes them. *)

type policy = {
  max_respawns : int;  (** respawn budget per worker slot *)
  backoff_base : float;  (** seconds before the first respawn *)
  backoff_factor : float;  (** multiplier per subsequent respawn *)
  backoff_max : float;  (** backoff ceiling, seconds *)
  quarantine_crashes : int;
      (** harness crashes before a pair is quarantined (used by the
          campaign, carried here so one policy value configures the whole
          fault model) *)
}

val default_policy : policy
(** 3 respawns, 10ms base doubling to a 500ms cap, quarantine at 3
    crashes. *)

val backoff_delay : policy -> int -> float
(** Delay before respawn number [attempt + 1]. *)

type outcome = {
  crashes : int;  (** total worker crashes across all slots *)
  gave_up : int;  (** slots that exhausted their respawn budget *)
}

val supervise :
  ?policy:policy ->
  ?on_crash:(domain:int -> attempt:int -> exn -> unit) ->
  ?on_respawn:(domain:int -> attempt:int -> backoff:float -> unit) ->
  ?on_give_up:(domain:int -> unit) ->
  domains:int ->
  (domain:int -> unit) ->
  outcome
(** [supervise ~domains body] runs [body ~domain] for each slot
    [0..domains-1] and blocks until every slot either returns normally or
    gives up.  An exception escaping [body] is a worker crash: [on_crash]
    fires (requeue the in-flight task here), then either the slot respawns
    after {!backoff_delay} (preceded by [on_respawn]) or, past the budget,
    [on_give_up] fires and the slot stays down.  Hooks are called from the
    slots' domains and must be thread-safe.

    With [~domains:1] the single slot also respawns inline (same
    crash/respawn semantics, no domains spawned): one slot has no
    parallelism to win, and every idle domain turns each minor collection
    into a cross-domain stop-the-world pause.  Worker identity never
    affects trial results — the engine resets all per-run domain-local
    state — so the execution shapes are observationally identical. *)
