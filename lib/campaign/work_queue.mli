(** A domain-safe work queue with a deterministic pop order.

    Items are drained concurrently by worker domains.  They come out
    lowest rank first and, within a rank, in the order they were put in —
    the only scheduling freedom is {e which worker} takes each item, never
    the item sequence itself, which is what keeps campaign task dispatch
    reproducible enough to reason about.  A queue made by {!create} is
    filled once, so its items come out in list order.  A queue made by
    {!create_open} is fed while it drains: {!push} merges each item into
    the unconsumed tail by rank (the campaign ranks a trial by its index,
    so trial i of every pair pushed so far comes before trial i+1), and
    {!pop} waits for more input until {!close_input}.

    Fault tolerance adds two controlled exceptions to that order:
    {!requeue} returns a task recovered from a crashed worker (it is
    popped before every other item), and {!close}/{!drain} let a
    supervisor cancel cleanly — workers see [None] and exit, and the
    unconsumed tasks are accounted for rather than lost. *)

type 'a t

val create : 'a list -> 'a t
(** A queue holding exactly these items, in this order; its input is
    already closed. *)

val create_open : rank:('a -> int) -> unit -> 'a t
(** An empty queue whose input stays open until {!close_input}.  [rank]
    must be non-negative. *)

val push : 'a t -> 'a -> unit
(** Add an item behind every unconsumed item of lower or equal rank and
    ahead of every item of higher rank, and wake one waiting {!pop}.
    [Invalid_argument] once the input is closed; pushing after {!close}
    is safe — the item comes back out of {!drain}. *)

val close_input : 'a t -> unit
(** No more pushes: once the queue is empty, {!pop} returns [None]. *)

val pop : 'a t -> 'a option
(** Take the next item, waiting while the queue is empty and its input
    open; [None] when the queue is exhausted or closed.  Safe to call
    from any domain. *)

val requeue : 'a t -> 'a -> unit
(** Return a task taken by a worker that died before completing it.  The
    task is popped ahead of every other item.  Requeueing after
    {!close} is safe: the task is retained and comes back out of
    {!drain}, so nothing is lost. *)

val close : 'a t -> unit
(** Stop issuing tasks: every subsequent {!pop} returns [None], and
    waiting ones return it at once.  Tasks not yet consumed stay in the
    queue for {!drain} to collect. *)

val is_closed : 'a t -> bool

val drain : 'a t -> 'a list
(** Close the queue and remove all unconsumed tasks, returning them in the
    order {!pop} would have issued them. *)

val total : 'a t -> int
(** Number of items put in by {!create} or {!push} (excludes requeues). *)

val remaining : 'a t -> int
(** Unconsumed tasks, including requeued ones. *)
