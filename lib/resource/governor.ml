(** Per-trial resource governor; see the interface for the model.

    The implementation is deliberately dumb: a counter, a ladder, and a
    subscriber list.  All the interesting behaviour (what compaction
    means per detector) lives in the subscribers — the governor only
    guarantees that trips happen at deterministic logical points and
    that the books balance. *)

type level = Full | Sampled | Lockset_only

let level_to_string = function
  | Full -> "full"
  | Sampled -> "sampled"
  | Lockset_only -> "lockset-only"

let level_of_string = function
  | "full" -> Some Full
  | "sampled" -> Some Sampled
  | "lockset-only" -> Some Lockset_only
  | _ -> None

type trigger = Entry_budget | Heap_watermark | Injected

let trigger_to_string = function
  | Entry_budget -> "entry-budget"
  | Heap_watermark -> "heap-watermark"
  | Injected -> "injected"

let trigger_of_string = function
  | "entry-budget" -> Some Entry_budget
  | "heap-watermark" -> Some Heap_watermark
  | "injected" -> Some Injected
  | _ -> None

exception Budget_stop of trigger

type t = {
  max_entries : int option;
  no_degrade : bool;
  mutable lv : level;
  mutable n : int;
  mutable peak : int;
  mutable evicted : int;
  mutable trips : int;
  mutable first_trigger : trigger option;
  mutable hooks : (level -> unit) list;  (* subscription order *)
  mutable tripping : bool;  (* re-entrancy guard for compaction hooks *)
}

type snapshot = {
  g_level : level;
  g_trigger : trigger option;
  g_trips : int;
  g_entries : int;
  g_peak : int;
  g_evicted : int;
}

let create ?max_entries ?(no_degrade = false) () =
  {
    max_entries;
    no_degrade;
    lv = Full;
    n = 0;
    peak = 0;
    evicted = 0;
    trips = 0;
    first_trigger = None;
    hooks = [];
    tripping = false;
  }

let unlimited () = create ()
let subscribe t f = t.hooks <- t.hooks @ [ f ]
let level t = t.lv
let entries t = t.n
let budget t = t.max_entries
let degraded t = t.trips > 0

let next_rung = function Full -> Sampled | Sampled | Lockset_only -> Lockset_only

let over_budget t =
  match t.max_entries with Some m -> t.n > m | None -> false

(* A trip must not re-enter itself: compaction hooks may legitimately
   move entries around (charge + credit) while shedding, and a nested
   trip mid-compaction would observe half-shed state.  [tripping] makes
   nested trips no-ops; hooks shed to a comfortable margin (budget/2)
   so trips stay rare rather than per-charge. *)
let trip t trigger =
  if t.no_degrade then raise (Budget_stop trigger);
  if not t.tripping then begin
    t.tripping <- true;
    Fun.protect
      ~finally:(fun () -> t.tripping <- false)
      (fun () ->
        if t.first_trigger = None then t.first_trigger <- Some trigger;
        t.trips <- t.trips + 1;
        t.lv <- next_rung t.lv;
        let lv = t.lv in
        List.iter (fun f -> f lv) t.hooks)
  end

(* The heap watermark is a physical backstop: when it fires we first
   ride the ladder down (absorb the trip, keep going lighter), and only
   cancel the run once the bottom rung is reached. *)
let heap_hook t () =
  if t.lv = Lockset_only then false
  else begin
    trip t Heap_watermark;
    true
  end

let charge t n =
  t.n <- t.n + n;
  if t.n > t.peak then t.peak <- t.n;
  if over_budget t && not t.tripping then trip t Entry_budget

let credit t n = t.n <- max 0 (t.n - n)

let evict t n =
  t.evicted <- t.evicted + n;
  credit t n

let snapshot t =
  {
    g_level = t.lv;
    g_trigger = t.first_trigger;
    g_trips = t.trips;
    g_entries = t.n;
    g_peak = t.peak;
    g_evicted = t.evicted;
  }
