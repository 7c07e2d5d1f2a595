(** Vector clocks, array-backed and updated in place: component [tid]
    lives at index [tid] of an [int array] that grows on demand, and
    components past its end read 0. *)

type t = { mutable c : int array }

let create () = { c = [||] }

let get t tid = if tid < Array.length t.c then Array.unsafe_get t.c tid else 0

(* Make room for component [n - 1], at least doubling so a clock that
   learns threads one by one grows in amortized O(1). *)
let grow t n =
  let len = Array.length t.c in
  if n > len then begin
    let c = Array.make (max n (2 * len)) 0 in
    Array.blit t.c 0 c 0 len;
    t.c <- c
  end

let tick t tid =
  grow t (tid + 1);
  t.c.(tid) <- t.c.(tid) + 1

let join t other =
  let o = other.c in
  let n = Array.length o in
  grow t n;
  let c = t.c in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get o i in
    if x > Array.unsafe_get c i then Array.unsafe_set c i x
  done

(* Index one past the last non-zero component. *)
let used t =
  let n = ref (Array.length t.c) in
  while !n > 0 && t.c.(!n - 1) = 0 do decr n done;
  !n

let copy t = { c = Array.sub t.c 0 (used t) }

let assign t src =
  let n = used src in
  if n > Array.length t.c then t.c <- Array.sub src.c 0 n
  else begin
    Array.blit src.c 0 t.c 0 n;
    Array.fill t.c n (Array.length t.c - n) 0
  end

let leq a b =
  let rec go i = i < 0 || (a.c.(i) <= get b i && go (i - 1)) in
  go (Array.length a.c - 1)

let equal a b = leq a b && leq b a

let of_list l =
  let t = create () in
  List.iter
    (fun (tid, n) ->
      grow t (tid + 1);
      t.c.(tid) <- n)
    l;
  t

let to_list t =
  List.filter (fun (_, n) -> n <> 0) (List.init (used t) (fun i -> (i, t.c.(i))))

let pp ppf t =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:(Fmt.any ",@ ") (fun ppf (tid, n) -> Fmt.pf ppf "t%d:%d" tid n))
    (to_list t)
