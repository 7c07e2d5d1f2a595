(** The postponed set and the pick loop shared by the phase-2 strategies
    ({!Algo}, {!Deadlock_fuzzer}, {!Atom_fuzzer}).

    Each of them runs the same loop at every consultation: release the
    threads that have been postponed too long, draw an enabled thread that
    is not postponed, and let the strategy decide whether it runs or is
    postponed in turn; when every enabled thread is postponed, release a
    random one and run it.  Only the decision differs.

    The set is a tid-indexed array of "postponed since" steps with a live
    count, so membership is one array read.  [oldest] is a lower bound on
    every live entry's step: livelock relief scans the array only when
    that bound says some thread may be due.  Draws index the enabled list
    with the same [Prng.int] bound a filtered copy would have had, so the
    PRNG stream is that of [Prng.pick] over the filtered list. *)

open Rf_util
open Rf_runtime

type t = {
  mutable since : int array;  (* tid -> step it was postponed at; -1 = not *)
  mutable count : int;  (* live entries *)
  mutable oldest : int;  (* <= every live entry's step *)
  timeout : int;  (* max_int disables livelock relief *)
  mutable evicted : bool;  (* the last [pick] released a postponed thread *)
}

let create ~timeout () =
  {
    since = Array.make 16 (-1);
    count = 0;
    oldest = max_int;
    timeout = Option.value timeout ~default:max_int;
    evicted = false;
  }

let mem p tid = tid < Array.length p.since && p.since.(tid) >= 0
let count p = p.count
let evicted p = p.evicted

let add p tid ~step =
  let n = Array.length p.since in
  if tid >= n then begin
    let a = Array.make (max (tid + 1) (2 * n)) (-1) in
    Array.blit p.since 0 a 0 n;
    p.since <- a
  end;
  if p.since.(tid) < 0 then p.count <- p.count + 1;
  p.since.(tid) <- step;
  if step < p.oldest then p.oldest <- step

let remove p tid =
  if mem p tid then begin
    p.since.(tid) <- -1;
    p.count <- p.count - 1
  end

(* Livelock relief: release, in tid order, every thread postponed for more
   than [timeout] steps, and return how many were released.  The scan
   also tightens [oldest] to the oldest entry left. *)
let relieve p ~step =
  if p.count = 0 || step - p.oldest <= p.timeout then 0
  else begin
    let released = ref 0 in
    let oldest = ref max_int in
    for tid = 0 to Array.length p.since - 1 do
      let s = p.since.(tid) in
      if s >= 0 then
        if step - s > p.timeout then begin
          p.since.(tid) <- -1;
          p.count <- p.count - 1;
          incr released
        end
        else if s < !oldest then oldest := s
    done;
    p.oldest <- !oldest;
    !released
  end

(* Enabled entries whose postponed-ness equals [postponed]: how many, and
   the [k]-th of them (from 0). *)
let rec count_where p postponed n = function
  | [] -> n
  | (e : Strategy.entry) :: rest ->
      count_where p postponed (if mem p e.tid == postponed then n + 1 else n) rest

let rec nth_where p postponed k = function
  | [] -> invalid_arg "Postpone.nth_where"
  | (e : Strategy.entry) :: rest ->
      if mem p e.tid != postponed then nth_where p postponed k rest
      else if k = 0 then e
      else nth_where p postponed (k - 1) rest

(* Returned by a [decide] function that postponed the entry it was shown:
   the loop draws again. *)
let retry = -1

let rec draw p (view : Strategy.view) decide =
  let free =
    if p.count = 0 then List.length view.enabled else count_where p false 0 view.enabled
  in
  if free = 0 then begin
    (* Everyone enabled is postponed: break the scheduler deadlock by
       releasing and executing a random postponed thread (§2.2). *)
    let victims = count_where p true 0 view.enabled in
    if victims = 0 then invalid_arg "Prng.pick: empty list";
    let v = nth_where p true (Prng.int view.prng victims) view.enabled in
    remove p v.tid;
    p.evicted <- true;
    v.tid
  end
  else
    let e =
      if p.count = 0 then List.nth view.enabled (Prng.int view.prng free)
      else nth_where p false (Prng.int view.prng free) view.enabled
    in
    let tid = decide view e in
    if tid = retry then draw p view decide else tid

let pick p view decide =
  p.evicted <- false;
  draw p view decide
