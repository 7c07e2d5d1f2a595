(** Deterministic pseudo-random number generation.

    RaceFuzzer's replay guarantee (paper §2.2: "we can trivially replay a
    concurrent execution by picking the same seed for random number
    generation") requires that every source of nondeterminism in the engine
    draws from a single seeded stream.  We implement SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014), a small, fast, well-distributed
    generator with a trivially serializable 64-bit state.

    The state lives unboxed in 8 bytes, so [int], [bool] and [float]
    draws allocate nothing; the scheduler draws at every switch.  [saved]
    caches the boxed state that [of_int64] or [set_state] was given, or
    that [state] last produced, until the next draw: the schedule
    recorder then stores the very box the replayer restored instead of a
    fresh copy. *)

type t = {
  s : Bytes.t;  (* the 64-bit state, native byte order *)
  mutable saved : int64;  (* boxed copy of the state, valid while [fresh] *)
  mutable fresh : bool;
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let of_int64 state =
  let s = Bytes.create 8 in
  set64 s 0 state;
  { s; saved = state; fresh = true }

let create seed = of_int64 (Int64.of_int seed)

let copy t = { s = Bytes.copy t.s; saved = t.saved; fresh = t.fresh }

let state t =
  if t.fresh then t.saved
  else begin
    let b = get64 t.s 0 in
    t.saved <- b;
    t.fresh <- true;
    b
  end

let set_state t st =
  set64 t.s 0 st;
  t.saved <- st;
  t.fresh <- true

let[@inline] next_int64 t =
  let z = Int64.add (get64 t.s 0) golden in
  set64 t.s 0 z;
  t.fresh <- false;
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A fresh generator whose seed is drawn from [t]; streams are
   statistically independent. *)
let split t = of_int64 (next_int64 t)

let bool t = Int64.equal (Int64.logand (next_int64 t) 1L) 1L

(* Uniform int in [0, bound).  Rejection sampling over the low 62 bits keeps
   the distribution exact for any bound representable as a positive int:
   [r] is in [0, 2^62); draws at or above [limit] are rejected to avoid
   modulo bias. *)
let rec int_below t bound limit =
  let r = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  if r >= limit then int_below t bound limit else r mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  int_below t bound (max_int - (max_int mod bound))

let float t =
  (* 53 random bits scaled to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let pick_arr t a =
  if Array.length a = 0 then invalid_arg "Prng.pick_arr: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pp ppf t = Fmt.pf ppf "prng<%Ld>" (get64 t.s 0)
