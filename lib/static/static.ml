(** Static race pre-filter.

    A flow-insensitive-but-sound analysis of which candidate pairs of
    statement sites can possibly race, run before RaceFuzzer's phase 2
    spends a full randomized execution per pair (the RacerF observation:
    most candidate pairs are statically refutable).  Facts are computed
    either from an RFL AST ({!of_program}) or declared by hand for embedded
    workload models ({!Model}).

    Three fact families, each with an explicit soundness direction:

    - {b thread escape} — the set of threads that may execute each site
      ({e over}-approximated through the call graph).  A location touched
      by at most one thread cannot race.
    - {b must-hold locksets} — locks that are provably held whenever the
      site executes ({e under}-approximated: branch join is intersection,
      loops reach a fixpoint by intersection, calls subtract every lock
      their callee closure might release).  A lock held at both sites of a
      pair excludes adjacency.
    - {b fork/join order} — pairs of threads strictly ordered by the
      spawn/join structure ({e under}-approximated from the declared
      [after] DAG plus the main thread's sequential fork loop).  Ordered
      threads never run concurrently.

    {!classify} composes them into [Impossible | Likely | Unknown] with a
    machine-checkable reason; [Impossible] is the only verdict the campaign
    acts on, so every approximation above errs away from it. *)

open Rf_util
module SS = Set.Make (String)

type reason =
  | No_write  (** both sites only read the location *)
  | Single_thread  (** at most one thread ever reaches either site *)
  | Fork_join_ordered
      (** every pair of threads reaching the two sites is strictly ordered
          by fork/join structure *)
  | Common_lock of string  (** this lock is must-held at both sites *)

type verdict = Impossible of reason | Likely | Unknown of string

let reason_to_string = function
  | No_write -> "no-write"
  | Single_thread -> "single-thread"
  | Fork_join_ordered -> "fork-join-ordered"
  | Common_lock l -> "common-lock:" ^ l

let verdict_to_string = function
  | Impossible r -> "impossible:" ^ reason_to_string r
  | Likely -> "likely"
  | Unknown why -> "unknown:" ^ why

let pp_verdict ppf v = Fmt.string ppf (verdict_to_string v)

type site_facts = {
  sf_var : string;  (** memory location (array = one location, all indices) *)
  sf_write : bool;
  sf_threads : SS.t;  (** over-approx: threads that may execute this site *)
  sf_locks : SS.t;  (** under-approx: locks held whenever this site runs *)
}

(** Fork/join order over thread indices. *)
type order = {
  thread_ix : (string, int) Hashtbl.t;  (** thread name -> row of [before] *)
  before : bool array array;
      (** transitively closed: [before.(a).(b)] means thread [a] is dead
          before thread [b] is forked *)
}

type t = { facts : site_facts Site.Map.t; order : order }

let facts_of t site = Site.Map.find_opt site t.facts
let sites t = List.map fst (Site.Map.bindings t.facts)

let is_ordered t a b =
  match (Hashtbl.find_opt t.order.thread_ix a, Hashtbl.find_opt t.order.thread_ix b) with
  | Some i, Some j -> t.order.before.(i).(j)
  | _ -> false

(* Two distinct threads may run concurrently unless fork/join order
   separates them; a thread never runs concurrently with itself. *)
let may_parallel t a b =
  (not (String.equal a b)) && (not (is_ordered t a b)) && not (is_ordered t b a)

(** A location escapes when two threads that may run in parallel both touch
    it. *)
let escaped t var =
  let threads =
    Site.Map.fold
      (fun _ f acc -> if String.equal f.sf_var var then SS.union f.sf_threads acc else acc)
      t.facts SS.empty
  in
  SS.exists (fun a -> SS.exists (fun b -> may_parallel t a b) threads) threads

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let classify t pair =
  let s1 = Site.Pair.fst pair and s2 = Site.Pair.snd pair in
  match (Site.Map.find_opt s1 t.facts, Site.Map.find_opt s2 t.facts) with
  | None, _ | _, None ->
      (* a site the analysis never saw (e.g. model code without a static
         model): no claim at all *)
      Unknown "no-facts"
  | Some f1, Some f2 ->
      if not (String.equal f1.sf_var f2.sf_var) then Unknown "different-locations"
      else if (not f1.sf_write) && not f2.sf_write then Impossible No_write
      else
        let cross =
          SS.exists
            (fun a -> SS.exists (fun b -> may_parallel t a b) f2.sf_threads)
            f1.sf_threads
        in
        if not cross then
          if SS.cardinal (SS.union f1.sf_threads f2.sf_threads) <= 1 then
            Impossible Single_thread
          else Impossible Fork_join_ordered
        else
          match SS.min_elt_opt (SS.inter f1.sf_locks f2.sf_locks) with
          | Some l -> Impossible (Common_lock l)
          | None -> Likely

let impossible t pair = match classify t pair with Impossible _ -> true | _ -> false

(** All unordered pairs of sites on the same location (including reflexive
    pairs: one statement racing with itself in two threads) — the
    syntactic candidate universe a location-based phase 1 starts from. *)
let universe t =
  Site.Map.fold
    (fun s1 f1 acc ->
      Site.Map.fold
        (fun s2 f2 acc ->
          if Site.compare s1 s2 <= 0 && String.equal f1.sf_var f2.sf_var then
            Site.Pair.Set.add (Site.Pair.make s1 s2) acc
          else acc)
        t.facts acc)
    t.facts Site.Pair.Set.empty

type counts = { n_impossible : int; n_likely : int; n_unknown : int }

let no_counts = { n_impossible = 0; n_likely = 0; n_unknown = 0 }

let count_verdict c = function
  | Impossible _ -> { c with n_impossible = c.n_impossible + 1 }
  | Likely -> { c with n_likely = c.n_likely + 1 }
  | Unknown _ -> { c with n_unknown = c.n_unknown + 1 }

let count t pairs =
  Site.Pair.Set.fold (fun p c -> count_verdict c (classify t p)) pairs no_counts

let universe_counts t = count t (universe t)

(* ------------------------------------------------------------------ *)
(* Transitive closure over thread-order edges                          *)

(* Index the thread names, then Floyd-Warshall on a bool matrix: one
   row OR per (k, i) pair that reaches k. *)
let close_order names edges =
  let thread_ix = Hashtbl.create 16 in
  let index name =
    if not (Hashtbl.mem thread_ix name) then
      Hashtbl.add thread_ix name (Hashtbl.length thread_ix)
  in
  List.iter index names;
  List.iter (fun (a, b) -> index a; index b) edges;
  let n = Hashtbl.length thread_ix in
  let before = Array.make_matrix n n false in
  List.iter
    (fun (a, b) -> before.(Hashtbl.find thread_ix a).(Hashtbl.find thread_ix b) <- true)
    edges;
  for k = 0 to n - 1 do
    let via = before.(k) in
    Array.iter
      (fun row -> if row.(k) then Array.iteri (fun j r -> if r then row.(j) <- true) via)
      before
  done;
  { thread_ix; before }

(* ------------------------------------------------------------------ *)
(* Hand-declared models for embedded (OCaml) workloads                 *)

module Model = struct
  type access = {
    m_site : Site.t;
    m_var : string;
    m_write : bool;
    m_thread : string;
    m_locks : SS.t;
  }

  type builder = {
    mutable accesses : access list;
    mutable orders : (string * string) list;
    mutable threads : SS.t;
  }

  let create () = { accesses = []; orders = []; threads = SS.empty }

  let access b ~site ~var ~write ~thread ~locks =
    b.threads <- SS.add thread b.threads;
    b.accesses <-
      { m_site = site; m_var = var; m_write = write; m_thread = thread;
        m_locks = SS.of_list locks }
      :: b.accesses

  (** [order b ~first ~then_]: thread [first] is joined before [then_] is
      forked. *)
  let order b ~first ~then_ =
    b.threads <- SS.add first (SS.add then_ b.threads);
    b.orders <- (first, then_) :: b.orders

  let build b =
    let facts =
      List.fold_left
        (fun m a ->
          let merged =
            match Site.Map.find_opt a.m_site m with
            | None ->
                {
                  sf_var = a.m_var;
                  sf_write = a.m_write;
                  sf_threads = SS.singleton a.m_thread;
                  sf_locks = a.m_locks;
                }
            | Some f ->
                (* one site, many occurrences: threads union (over-approx),
                   locks intersect (under-approx) *)
                {
                  f with
                  sf_write = f.sf_write || a.m_write;
                  sf_threads = SS.add a.m_thread f.sf_threads;
                  sf_locks = SS.inter f.sf_locks a.m_locks;
                }
          in
          Site.Map.add a.m_site merged m)
        Site.Map.empty (List.rev b.accesses)
    in
    { facts; order = close_order (SS.elements b.threads) b.orders }
end

(* ------------------------------------------------------------------ *)
(* RFL AST analysis                                                    *)

module A = Rf_lang.Ast

(* Collect names of functions called anywhere in an expression / block. *)
let rec calls_in_expr acc (e : A.expr) =
  match e.A.e with
  | A.Eint _ | A.Ebool _ | A.Estring _ | A.Evar _ -> acc
  | A.Eindex (_, i) -> calls_in_expr acc i
  | A.Ebin (_, l, r) -> calls_in_expr (calls_in_expr acc l) r
  | A.Eneg x | A.Enot x -> calls_in_expr acc x
  | A.Ecall (f, args) -> List.fold_left calls_in_expr (SS.add f acc) args

let rec calls_in_stmt acc (st : A.stmt) =
  match st.A.s with
  | A.Sassign (_, e) | A.Slet (_, e) | A.Sassert e | A.Sprint e -> calls_in_expr acc e
  | A.Sindex_assign (_, i, e) -> calls_in_expr (calls_in_expr acc i) e
  | A.Sif (c, t, eo) ->
      let acc = calls_in_block (calls_in_expr acc c) t in
      Option.fold ~none:acc ~some:(calls_in_block acc) eo
  | A.Swhile (c, b) -> calls_in_block (calls_in_expr acc c) b
  | A.Sfor (i, c, s, b) ->
      calls_in_block (calls_in_stmt (calls_in_expr (calls_in_stmt acc i) c) s) b
  | A.Ssync (_, b) -> calls_in_block acc b
  | A.Slock _ | A.Sunlock _ | A.Swait _ | A.Snotify _ | A.Snotify_all _ | A.Ssleep
  | A.Serror _ | A.Sskip ->
      acc
  | A.Sreturn eo -> Option.fold ~none:acc ~some:(calls_in_expr acc) eo
  | A.Scall (f, args) -> List.fold_left calls_in_expr (SS.add f acc) args

and calls_in_block acc b = List.fold_left calls_in_stmt acc b

(* Locks a block may textually release ([unlock]; [wait] re-acquires before
   returning, so it never invalidates must-hold downstream). *)
let rec unlocks_in_stmt acc (st : A.stmt) =
  match st.A.s with
  | A.Sunlock l -> SS.add l acc
  | A.Sif (_, t, eo) ->
      let acc = unlocks_in_block acc t in
      Option.fold ~none:acc ~some:(unlocks_in_block acc) eo
  | A.Swhile (_, b) | A.Ssync (_, b) -> unlocks_in_block acc b
  | A.Sfor (i, _, s, b) ->
      unlocks_in_block (unlocks_in_stmt (unlocks_in_stmt acc i) s) b
  | _ -> acc

and unlocks_in_block acc b = List.fold_left unlocks_in_stmt acc b

let of_program (prog : A.program) : t =
  let file = prog.A.file in
  let site (pos : Rf_lang.Token.pos) label =
    Site.make ~file ~line:pos.Rf_lang.Token.line ~col:pos.Rf_lang.Token.col label
  in
  let globals =
    List.fold_left (fun s (g : A.shared_decl) -> SS.add g.A.gname s) SS.empty
      prog.A.shareds
  in
  let funcs = Hashtbl.create 8 in
  List.iter (fun (f : A.func) -> Hashtbl.replace funcs f.A.fname f) prog.A.funcs;
  (* call-graph closure: for each function, every function transitively
     reachable from it (including itself) *)
  let closure_of direct =
    let rec grow seen frontier =
      match frontier with
      | [] -> seen
      | f :: rest ->
          if SS.mem f seen then grow seen rest
          else
            let callees =
              match Hashtbl.find_opt funcs f with
              | None -> SS.empty
              | Some fn -> calls_in_block SS.empty fn.A.fbody
            in
            grow (SS.add f seen) (SS.elements callees @ rest)
    in
    grow SS.empty (SS.elements direct)
  in
  (* locks a call to [f] might have released by the time it returns *)
  let release_closure f =
    SS.fold
      (fun g acc ->
        match Hashtbl.find_opt funcs g with
        | None -> acc
        | Some fn -> SS.union acc (unlocks_in_block SS.empty fn.A.fbody))
      (closure_of (SS.singleton f))
      SS.empty
  in
  let release_of_calls calls =
    SS.fold (fun f acc -> SS.union acc (release_closure f)) calls SS.empty
  in
  (* threads that may (transitively) execute each function's body *)
  let reach = Hashtbl.create 8 in
  List.iter
    (fun (t : A.thread_decl) ->
      let cl = closure_of (calls_in_block SS.empty t.A.tbody) in
      SS.iter
        (fun f ->
          let cur = Option.value ~default:SS.empty (Hashtbl.find_opt reach f) in
          Hashtbl.replace reach f (SS.add t.A.tname cur))
        cl)
    prog.A.threads;
  (* --- the walker: record sites under the current must-lockset --- *)
  let tbl : (Site.t, site_facts) Hashtbl.t = Hashtbl.create 64 in
  let record ~threads ~locks s ~var ~write =
    match Hashtbl.find_opt tbl s with
    | None ->
        Hashtbl.replace tbl s
          { sf_var = var; sf_write = write; sf_threads = threads; sf_locks = locks }
    | Some f ->
        Hashtbl.replace tbl s
          {
            f with
            sf_write = f.sf_write || write;
            sf_threads = SS.union f.sf_threads threads;
            sf_locks = SS.inter f.sf_locks locks;
          }
  in
  (* [recording=false] walks are pure lock-transfer passes (loop fixpoints
     run the body repeatedly; only the converged pass records). *)
  let rec walk_expr ~recording ~threads ~locals locks (e : A.expr) =
    if recording then
      match e.A.e with
      | A.Evar name ->
          if (not (SS.mem name locals)) && SS.mem name globals then
            record ~threads ~locks (site e.A.epos (name ^ "(read)")) ~var:name
              ~write:false
      | A.Eindex (name, i) ->
          walk_expr ~recording ~threads ~locals locks i;
          if SS.mem name globals then
            record ~threads ~locks
              (site e.A.epos (Fmt.str "%s[](read)" name))
              ~var:name ~write:false
      | A.Ebin (_, l, r) ->
          walk_expr ~recording ~threads ~locals locks l;
          walk_expr ~recording ~threads ~locals locks r
      | A.Eneg x | A.Enot x -> walk_expr ~recording ~threads ~locals locks x
      | A.Ecall (_, args) ->
          List.iter (walk_expr ~recording ~threads ~locals locks) args
      | A.Eint _ | A.Ebool _ | A.Estring _ -> ()
  in
  let rec walk_stmt ~recording ~threads locals locks (st : A.stmt) :
      SS.t * SS.t =
    (* returns (locals, locks) after the statement *)
    let pos = st.A.spos in
    (* any call reachable from this statement's expressions may release
       locks; under-approximate by assuming it already has *)
    let locks =
      let calls = calls_in_stmt SS.empty { st with A.s = simple_view st.A.s } in
      if SS.is_empty calls then locks else SS.diff locks (release_of_calls calls)
    in
    let we e = walk_expr ~recording ~threads ~locals locks e in
    match st.A.s with
    | A.Sassign (name, e) ->
        we e;
        if recording && (not (SS.mem name locals)) && SS.mem name globals then
          record ~threads ~locks (site pos (name ^ "=")) ~var:name ~write:true;
        (locals, locks)
    | A.Sindex_assign (name, i, e) ->
        we i;
        we e;
        if recording && SS.mem name globals then
          record ~threads ~locks (site pos (Fmt.str "%s[]=" name)) ~var:name
            ~write:true;
        (locals, locks)
    | A.Slet (name, e) ->
        we e;
        (SS.add name locals, locks)
    | A.Sif (c, then_, else_) ->
        we c;
        let l1 = walk_block ~recording ~threads locals locks then_ in
        let l2 =
          match else_ with
          | None -> locks
          | Some b -> walk_block ~recording ~threads locals locks b
        in
        (locals, SS.inter l1 l2)
    | A.Swhile (c, body) ->
        let fix = loop_fixpoint ~threads locals locks [ body ] in
        walk_expr ~recording ~threads ~locals fix c;
        ignore (walk_block ~recording ~threads locals fix body);
        (locals, fix)
    | A.Sfor (init, c, step, body) ->
        let locals', locks' = walk_stmt ~recording ~threads locals locks init in
        let fix = loop_fixpoint ~threads locals' locks' [ body; [ step ] ] in
        walk_expr ~recording ~threads ~locals:locals' fix c;
        ignore (walk_block ~recording ~threads locals' fix body);
        ignore (walk_stmt ~recording ~threads locals' fix step);
        (locals, fix)
    | A.Ssync (l, body) ->
        let out = walk_block ~recording ~threads locals (SS.add l locks) body in
        (locals, SS.inter locks out)
    | A.Slock l -> (locals, SS.add l locks)
    | A.Sunlock l -> (locals, SS.remove l locks)
    | A.Swait _ | A.Snotify _ | A.Snotify_all _ | A.Ssleep | A.Sskip
    | A.Serror _ ->
        (locals, locks)
    | A.Sassert e | A.Sprint e ->
        we e;
        (locals, locks)
    | A.Sreturn eo ->
        Option.iter we eo;
        (locals, locks)
    | A.Scall (_, args) ->
        List.iter we args;
        (locals, locks)
  and walk_block ~recording ~threads locals locks (b : A.block) : SS.t =
    let _, locks =
      List.fold_left
        (fun (locals, locks) st -> walk_stmt ~recording ~threads locals locks st)
        (locals, locks) b
    in
    locks
  and loop_fixpoint ~threads locals locks blocks =
    (* greatest must-set stable under one more iteration, intersected with
       the zero-iteration entry state *)
    let transfer entry =
      List.fold_left
        (fun lk b -> walk_block ~recording:false ~threads locals lk b)
        entry blocks
    in
    let rec go entry =
      let entry' = SS.inter entry (transfer entry) in
      if SS.equal entry' entry then entry else go entry'
    in
    go locks
  and simple_view s =
    (* restrict the call-release scan to this statement's own header
       expressions: nested statements account for their own calls *)
    match s with
    | A.Sif (c, _, _) -> A.Sassert c
    | A.Swhile (c, _) -> A.Sassert c
    | A.Sfor (_, c, _, _) -> A.Sassert c
    | A.Ssync (_, _) -> A.Sskip
    | s -> s
  in
  List.iter
    (fun (t : A.thread_decl) ->
      ignore
        (walk_block ~recording:true ~threads:(SS.singleton t.A.tname) SS.empty
           SS.empty t.A.tbody))
    prog.A.threads;
  List.iter
    (fun (f : A.func) ->
      let threads =
        Option.value ~default:SS.empty (Hashtbl.find_opt reach f.A.fname)
      in
      let locals =
        List.fold_left (fun s (p, _) -> SS.add p s) SS.empty f.A.fparams
      in
      (* intraprocedural: entry lockset is empty (callers may hold more;
         claiming less is sound) *)
      ignore (walk_block ~recording:true ~threads locals SS.empty f.A.fbody))
    prog.A.funcs;
  (* fork/join order: main forks declared threads in order, joining each
     [after] dependency first — so a dependency is dead before its
     dependent *and* every later-declared thread* is forked *)
  let joined = ref SS.empty in
  let edges = ref [] in
  List.iter
    (fun (t : A.thread_decl) ->
      joined := SS.union !joined (SS.of_list t.A.tafter);
      SS.iter (fun d -> edges := (d, t.A.tname) :: !edges) !joined)
    prog.A.threads;
  let names = List.map (fun (t : A.thread_decl) -> t.A.tname) prog.A.threads in
  let facts = Hashtbl.fold Site.Map.add tbl Site.Map.empty in
  { facts; order = close_order names !edges }
