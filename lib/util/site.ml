(** Statement sites.

    A site identifies a static program statement — the unit over which the
    paper defines racing pairs ("we count the number of distinct pairs of
    statements for which there is a race", §5.2).  DSL statements get a site
    per source position; embedded model programs (workloads, collections)
    declare sites explicitly.

    Sites are interned in a global registry so that re-parsing the same file
    or re-constructing the same workload yields physically stable ids, which
    keeps racing pairs comparable across engine runs. *)

type t = { id : int; file : string; line : int; col : int; label : string }

let id t = t.id
let file t = t.file
let line t = t.line
let col t = t.col
let label t = t.label

type key = string * int * int * string

(* The registry is global, program-structure state (sites are *static*
   statements).  It is shared across domains during parallel fuzzing, so
   interning is mutex-protected.  Identity is by key, but ids follow
   interning order, and pair orientation and every printed or
   fingerprinted pair order follow ids — so while one domain holds
   priority ([with_priority]: phase 1 overlapping phase-2 trials), a miss
   on any other domain waits instead of taking the next id, until the
   holder interns that site or its priority ends. *)
let registry : (key, t) Hashtbl.t = Hashtbl.create 256
let by_id : (int, t) Hashtbl.t = Hashtbl.create 256
let next_id = ref 0
let registry_mutex = Mutex.create ()
let priority : Domain.id option ref = ref None
let priority_changed = Condition.create ()  (* the holder interned, or ended *)
let waiters = ref 0
let stalled_s = Domain.DLS.new_key (fun () -> ref 0.0)

(* Caller holds the registry mutex. *)
let wait_for_priority () =
  let t0 = Unix.gettimeofday () in
  incr waiters;
  Condition.wait priority_changed registry_mutex;
  decr waiters;
  let s = Domain.DLS.get stalled_s in
  s := !s +. (Unix.gettimeofday () -. t0)

(* A miss, with the registry mutex held: wait while another domain holds
   priority and the site is still missing, then intern it. *)
let rec intern ((file, line, col, label) as key) =
  match Hashtbl.find_opt registry key with
  | Some s -> s
  | None -> (
      match !priority with
      | Some d when d <> Domain.self () ->
          wait_for_priority ();
          intern key
      | holder ->
          let s = { id = !next_id; file; line; col; label } in
          incr next_id;
          Hashtbl.add registry key s;
          Hashtbl.add by_id s.id s;
          if holder <> None && !waiters > 0 then
            Condition.broadcast priority_changed;
          s)

(* Model programs name a site by calling [make] on every operation, so its
   hit path must be cheap: a direct-mapped cache of interned sites sits in
   front of the registry and a hit takes no lock and allocates nothing.
   The cache is read and written without synchronisation.  That is safe
   because a slot only ever holds [empty] or a site the registry already
   interned, and a site is an immutable record built before it is stored:
   OCaml 5 never shows another domain an immutable block before its
   initialising writes, so a racy read sees some fully built site — the
   slot's old one or its new one — and checks the whole key before
   returning it.  A stale or colliding slot is just a miss, and every miss
   takes the locked path, so ids, interning order and the priority gate
   are the registry's alone.  The label's characters enter the hash:
   [Api]'s default sites share file, line and col. *)
let cache_size = 4096
let empty = { id = -1; file = ""; line = -1; col = -1; label = "" }
let cache = Array.make cache_size empty

let slot line col label =
  let h = ref ((line * 31) + col) in
  for i = 0 to String.length label - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get label i)
  done;
  !h land (cache_size - 1)

let make ?(file = "<model>") ?(line = 0) ?(col = 0) label =
  let i = slot line col label in
  let s = Array.unsafe_get cache i in
  if s.line = line && s.col = col && s != empty && String.equal s.label label
     && String.equal s.file file
  then s
  else begin
    let key = (file, line, col, label) in
    let s =
      Mutex.protect registry_mutex (fun () ->
          match Hashtbl.find_opt registry key with
          | Some s -> s
          | None -> intern key)
    in
    Array.unsafe_set cache i s;
    s
  end

let with_priority f =
  let self = Domain.self () in
  Mutex.protect registry_mutex (fun () ->
      if !priority = Some self then invalid_arg "Site.with_priority: re-entered";
      while !priority <> None do
        wait_for_priority ()
      done;
      priority := Some self);
  Fun.protect f ~finally:(fun () ->
      Mutex.protect registry_mutex (fun () ->
          priority := None;
          Condition.broadcast priority_changed))

let waiting () = Mutex.protect registry_mutex (fun () -> !waiters)
let stalled () = !(Domain.DLS.get stalled_s)

let find_by_id id = Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt by_id id)

(** All registered sites on a given line of a file (used by the CLI to let
    users name racing statements by line number, like the paper's figures). *)
let find_by_line ~file ~line =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold
        (fun (f, l, _, _) s acc ->
          if String.equal f file && l = line then s :: acc else acc)
        registry [])
  |> List.sort compare

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash t = t.id

let pp ppf t =
  if t.line = 0 && String.equal t.file "<model>" then Fmt.pf ppf "%s" t.label
  else if t.col = 0 then Fmt.pf ppf "%s:%d(%s)" t.file t.line t.label
  else Fmt.pf ppf "%s:%d:%d(%s)" t.file t.line t.col t.label

let to_string t = Fmt.str "%a" pp t

(** Unordered pairs of sites: the paper's "racing pair of statements".
    Normalized so that [fst] has the smaller id; a pair may be reflexive
    (the same statement racing with itself in two threads). *)
module Pair = struct
  type site = t
  type t = { fst : site; snd : site }

  let make a b = if a.id <= b.id then { fst = a; snd = b } else { fst = b; snd = a }
  let fst t = t.fst
  let snd t = t.snd
  let equal a b = equal a.fst b.fst && equal a.snd b.snd
  let compare a b =
    match Int.compare a.fst.id b.fst.id with
    | 0 -> Int.compare a.snd.id b.snd.id
    | c -> c

  let hash t = (t.fst.id * 65599) + t.snd.id

  let equal_site (a : site) (b : site) = a.id = b.id
  let mem s t = equal_site s t.fst || equal_site s t.snd

  let other s t =
    if equal_site s t.fst then Some t.snd
    else if equal_site s t.snd then Some t.fst
    else None

  let pp_site ppf (s : site) =
    if s.line = 0 && String.equal s.file "<model>" then Fmt.pf ppf "%s" s.label
    else if s.col = 0 then Fmt.pf ppf "%s:%d(%s)" s.file s.line s.label
    else Fmt.pf ppf "%s:%d:%d(%s)" s.file s.line s.col s.label

  let pp ppf t = Fmt.pf ppf "(%a, %a)" pp_site t.fst pp_site t.snd
  let to_string t = Fmt.str "%a" pp t

  module Set = Set.Make (struct
    type nonrec t = t
    let compare = compare
  end)
end

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare
end)
