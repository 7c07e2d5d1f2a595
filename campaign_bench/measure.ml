(* Measurement helpers shared by the benchmark's modules. *)

let now = Unix.gettimeofday

(* Peak major-heap footprint of one measured region: compact first so
   earlier garbage cannot be charged to it, then sample [heap_words] at
   every major-collection end (Gc alarm) and once more at the finish. *)
let with_peak_heap f =
  Gc.compact ();
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let sample () =
    let hw = (Gc.quick_stat ()).Gc.heap_words in
    if hw > !peak then peak := hw
  in
  let alarm = Gc.create_alarm sample in
  let r = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f in
  sample ();
  (r, !peak)

(* Guarded division, so a sub-resolution clock or an empty set never
   leaks inf or nan into a result line. *)
let ratio a b = if b > 0.0 then a /. b else 0.0

let sorted xs = List.sort Float.compare xs

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (the default "exclusive" method), which is how the benchmark's spread
   is judged. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q k =
      let m = float_of_int (n + 1) *. float_of_int k /. 4.0 in
      let j = max 1 (min (n - 1) (truncate m)) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    (q 1, q 2, q 3)

let median xs =
  match sorted xs with
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [p]-th percentile (0..100) by nearest rank. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let sum = List.fold_left ( +. ) 0.0
