type 'a t = {
  mutex : Mutex.t;
  changed : Condition.t;  (* an item arrived, or the input or queue closed *)
  rank : 'a -> int;
  mutable buckets : 'a Queue.t array;  (* unconsumed items, by rank *)
  mutable low : int;  (* no unconsumed item ranks below this *)
  mutable count : int;  (* items in [buckets] *)
  mutable pushed : int;
  mutable requeued : 'a list;  (* recovered tasks; drained before [buckets] *)
  mutable input_open : bool;
  mutable closed : bool;
}

let make ~rank ~input_open =
  {
    mutex = Mutex.create ();
    changed = Condition.create ();
    rank;
    buckets = [| Queue.create () |];
    low = 0;
    count = 0;
    pushed = 0;
    requeued = [];
    input_open;
    closed = false;
  }

(* Caller holds the mutex. *)
let add t x =
  let r = t.rank x in
  if r < 0 then invalid_arg "Work_queue.push: negative rank";
  let n = Array.length t.buckets in
  if r >= n then
    t.buckets <-
      Array.init (max (r + 1) (2 * n)) (fun i ->
          if i < n then t.buckets.(i) else Queue.create ());
  Queue.add x t.buckets.(r);
  if r < t.low then t.low <- r;
  t.count <- t.count + 1;
  t.pushed <- t.pushed + 1

let create items =
  let t = make ~rank:(fun _ -> 0) ~input_open:false in
  List.iter (add t) items;
  t

let create_open ~rank () = make ~rank ~input_open:true

let push t x =
  Mutex.protect t.mutex (fun () ->
      if not (t.input_open || t.closed) then
        invalid_arg "Work_queue.push: input closed";
      add t x;
      Condition.signal t.changed)

let close_input t =
  Mutex.protect t.mutex (fun () ->
      t.input_open <- false;
      Condition.broadcast t.changed)

let pop t =
  Mutex.protect t.mutex (fun () ->
      let rec take () =
        if t.closed then None
        else
          match t.requeued with
          | x :: rest ->
              t.requeued <- rest;
              Some x
          | [] when t.count > 0 ->
              while Queue.is_empty t.buckets.(t.low) do
                t.low <- t.low + 1
              done;
              t.count <- t.count - 1;
              Some (Queue.take t.buckets.(t.low))
          | [] when t.input_open ->
              Condition.wait t.changed t.mutex;
              take ()
          | [] -> None
      in
      take ())

let requeue t x =
  Mutex.protect t.mutex (fun () ->
      t.requeued <- x :: t.requeued;
      Condition.signal t.changed)

let close t =
  Mutex.protect t.mutex (fun () ->
      t.closed <- true;
      Condition.broadcast t.changed)

let is_closed t = Mutex.protect t.mutex (fun () -> t.closed)

let drain t =
  Mutex.protect t.mutex (fun () ->
      t.closed <- true;
      Condition.broadcast t.changed;
      let rest = ref [] in
      for r = Array.length t.buckets - 1 downto 0 do
        rest := List.of_seq (Queue.to_seq t.buckets.(r)) @ !rest;
        Queue.clear t.buckets.(r)
      done;
      t.count <- 0;
      let requeued = t.requeued in
      t.requeued <- [];
      requeued @ !rest)

let total t = Mutex.protect t.mutex (fun () -> t.pushed)

let remaining t =
  Mutex.protect t.mutex (fun () -> List.length t.requeued + t.count)
