(** RFL compiler: lowers a checked program, once, to OCaml closures over
    the instrumented runtime.

    Every access to a [shared] variable or array element performs the
    corresponding {!Rf_runtime.Api.Cell}/{!Rf_runtime.Api.Sarray} operation
    with a {!Rf_util.Site.t} derived from the source position, so the
    engine, detectors and RaceFuzzer see DSL statements exactly like
    embedded model code — races are reported as [file:line:col].
    Thread-local [let] variables are plain OCaml state: invisible to the
    scheduler, like locals in the paper's 3-address-code model (§2.1,
    "a statement in the program can access at most one shared object").

    Names are resolved at compile time, following the checker's scoping:
    locals become slots of one array per activation (thread body or
    function call), shared variables, locks and functions become indices.
    A run then only allocates its cells, locks and frames. *)

open Rf_util
open Rf_runtime

type value = Vint of int | Vbool of bool | Vstr of string

let string_of_value = function
  | Vint n -> string_of_int n
  | Vbool b -> string_of_bool b
  | Vstr s -> s

let pp_value ppf v = Fmt.string ppf (string_of_value v)
let vtrue = Vbool true
let vfalse = Vbool false
let vbool b = if b then vtrue else vfalse

(* Fills every frame slot until its [let] runs; only a [let] in a [for]
   step can be read in that state (see [Late]). *)
let undefined = Vstr "<undefined>"

exception Return_exn of value

let return_unit = Return_exn vfalse

(* One run's shared state, indexed as the compiler resolved it. *)
type rt = {
  cells : value Api.Cell.t array;
  arrays : value Api.Sarray.t array;
  locks : Lock.t array;
}

type code = rt -> value array -> value
type stmt = rt -> value array -> unit

(* A statement site: its label is built at compile time, and it is
   interned the first time the node executes, then kept in the node.
   Campaign fingerprints sort pairs by site id and ids follow interning
   order, so interning at compile time (source order) would change them.
   A plain mutable field, not [Lazy.t]: two domains forcing one suspension
   raise [Lazy.Undefined], while two racing [Site.make]s return the same
   site. *)
type site = {
  file : string;
  line : int;
  col : int;
  label : string;
  mutable interned : Site.t option;
}

let site_of s =
  match s.interned with
  | Some site -> site
  | None ->
      let site = Site.make ~file:s.file ~line:s.line ~col:s.col s.label in
      s.interned <- Some site;
      site

(* What a name denotes at one program point.  [Late (slot, outer)] is a
   [let] in a [for] step: the body is checked in its scope but runs before
   the step first does, and until then the name means [outer]. *)
type var =
  | Local of int
  | Late of int * var
  | Cell of int
  | Array of int
  | Unbound

type func = {
  fret : Ast.ty option;
  mutable slots : int;
  mutable body : stmt;
}

type env = {
  file : string;
  print : string -> unit;
  globals : (string * var) list;
  locks : (string * int) list;
  funcs : (string * func) list;
}

(* Locals of the activation being compiled: bindings innermost first, and
   slots handed out stack-wise, so sibling blocks share slots. *)
type scope = {
  mutable vars : (string * var) list;
  mutable next : int;
  mutable size : int;
}

let new_scope () = { vars = []; next = 0; size = 0 }

let in_block sc f =
  let vars = sc.vars and next = sc.next in
  let r = f () in
  sc.vars <- vars;
  sc.next <- next;
  r

let declare sc name mk =
  let slot = sc.next in
  sc.next <- slot + 1;
  sc.size <- max sc.size sc.next;
  sc.vars <- (name, mk slot) :: sc.vars;
  slot

let resolve env sc name =
  match List.assoc_opt name sc.vars with
  | Some v -> v
  | None -> Option.value (List.assoc_opt name env.globals) ~default:Unbound

let array_index env sc name =
  match resolve env sc name with Array a -> a | _ -> assert false (* rejected by Check *)

let site env (pos : Token.pos) label =
  { file = env.file; line = pos.Token.line; col = pos.Token.col; label; interned = None }

let model_error fmt = Fmt.kstr (fun m -> raise (Api.Model_error m)) fmt

let as_int pos = function
  | Vint n -> n
  | v -> model_error "expected int at %a, got %a" Token.pp_pos pos pp_value v

let as_bool pos = function
  | Vbool b -> b
  | v -> model_error "expected bool at %a, got %a" Token.pp_pos pos pp_value v

let nop : stmt = fun _ _ -> ()

let rec seq = function
  | [] -> nop
  | [ s ] -> s
  | s :: rest ->
      let rest = seq rest in
      fun rt fr ->
        s rt fr;
        rest rt fr

let value_of_const (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Eint n -> Vint n
  | Ast.Ebool b -> vbool b
  | Ast.Eneg { Ast.e = Ast.Eint n; _ } -> Vint (-n)
  | _ -> assert false (* enforced by Check *)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let rec read_var env pos name : var -> code = function
  | Local k -> fun _ fr -> fr.(k)
  | Late (k, outer) ->
      let outer = read_var env pos name outer in
      fun rt fr ->
        let v = fr.(k) in
        if v == undefined then outer rt fr else v
  | Cell i ->
      let s = site env pos (name ^ "(read)") in
      fun rt _ -> Api.Cell.read ~site:(site_of s) rt.cells.(i)
  (* only as the outer meaning of a [Late], where the tree walker failed
     the same way: an array used as a scalar, or no binding at all *)
  | Array _ -> fun _ _ -> assert false
  | Unbound -> fun _ _ -> raise Not_found

let rec expr env sc (e : Ast.expr) : code =
  let pos = e.Ast.epos in
  match e.Ast.e with
  | Ast.Eint n ->
      let v = Vint n in
      fun _ _ -> v
  | Ast.Ebool b ->
      let v = vbool b in
      fun _ _ -> v
  | Ast.Estring str ->
      let v = Vstr str in
      fun _ _ -> v
  | Ast.Evar name -> read_var env pos name (resolve env sc name)
  | Ast.Eindex (name, idx) ->
      let idx = expr env sc idx and a = array_index env sc name in
      let s = site env pos (Fmt.str "%s[](read)" name) in
      fun rt fr ->
        let i = as_int pos (idx rt fr) in
        Api.Sarray.get ~site:(site_of s) rt.arrays.(a) i
  | Ast.Ebin (op, a, b) -> binop pos op (expr env sc a) (expr env sc b)
  | Ast.Eneg a ->
      let a = expr env sc a in
      fun rt fr -> Vint (-as_int pos (a rt fr))
  | Ast.Enot a ->
      let a = expr env sc a in
      fun rt fr -> vbool (not (as_bool pos (a rt fr)))
  | Ast.Ecall (name, args) -> call env sc name args

and binop pos op a b : code =
  (* operands left to right; && and || short-circuit, like Java *)
  match op with
  | Ast.And ->
      fun rt fr -> if as_bool pos (a rt fr) then vbool (as_bool pos (b rt fr)) else vfalse
  | Ast.Or ->
      fun rt fr -> if as_bool pos (a rt fr) then vtrue else vbool (as_bool pos (b rt fr))
  | Ast.Eq ->
      fun rt fr ->
        let va = a rt fr in
        let vb = b rt fr in
        vbool (va = vb)
  | Ast.Neq ->
      fun rt fr ->
        let va = a rt fr in
        let vb = b rt fr in
        vbool (va <> vb)
  | Ast.Div | Ast.Mod ->
      let what = if op = Ast.Div then "division" else "modulo" in
      fun rt fr ->
        let va = a rt fr in
        let d = as_int pos (b rt fr) in
        if d = 0 then model_error "%s by zero at %a" what Token.pp_pos pos;
        let n = as_int pos va in
        Vint (if op = Ast.Div then n / d else n mod d)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      fun rt fr ->
        let va = a rt fr in
        let vb = b rt fr in
        let y = as_int pos vb in
        let x = as_int pos va in
        match op with
        | Ast.Add -> Vint (x + y)
        | Ast.Sub -> Vint (x - y)
        | Ast.Mul -> Vint (x * y)
        | Ast.Lt -> vbool (x < y)
        | Ast.Le -> vbool (x <= y)
        | Ast.Gt -> vbool (x > y)
        | _ -> vbool (x >= y))

(* Arguments left to right into the callee's frame, then the
   function-entry safepoint: unbounded local recursion must still yield. *)
and call env sc name args : code =
  let f = List.assoc name env.funcs in
  let args = Array.of_list (List.map (expr env sc) args) in
  let fell_off =
    match f.fret with
    | None -> fun () -> vfalse
    | Some _ -> fun () -> model_error "function %s ended without returning a value" name
  in
  fun rt fr ->
    let callee = Array.make f.slots undefined in
    for i = 0 to Array.length args - 1 do
      callee.(i) <- args.(i) rt fr
    done;
    Op.perform Op.Pause;
    match f.body rt callee with () -> fell_off () | exception Return_exn v -> v

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let rec write_var env pos name : var -> value -> stmt = function
  | Local k -> fun v _ fr -> fr.(k) <- v
  | Late (k, outer) ->
      let outer = write_var env pos name outer in
      fun v rt fr -> if fr.(k) == undefined then outer v rt fr else fr.(k) <- v
  | Cell i ->
      let s = site env pos (name ^ "=") in
      fun v rt _ -> Api.Cell.write ~site:(site_of s) rt.cells.(i) v
  | Array _ -> fun _ _ _ -> assert false (* as in [read_var] *)
  | Unbound -> fun _ _ _ -> raise Not_found

let rec stmt ?(late = false) env sc (st : Ast.stmt) : stmt =
  let pos = st.Ast.spos in
  let monitor l op (f : site:Site.t -> Lock.t -> unit) : stmt =
    let k = List.assoc l env.locks and s = site env pos (Fmt.str "%s(%s)" op l) in
    fun rt _ -> f ~site:(site_of s) rt.locks.(k)
  in
  match st.Ast.s with
  | Ast.Sassign (name, e) ->
      let e = expr env sc e in
      let write = write_var env pos name (resolve env sc name) in
      fun rt fr -> write (e rt fr) rt fr
  | Ast.Sindex_assign (name, idx, e) ->
      let idx = expr env sc idx and e = expr env sc e and a = array_index env sc name in
      let s = site env pos (Fmt.str "%s[]=" name) in
      fun rt fr ->
        let i = as_int pos (idx rt fr) in
        let v = e rt fr in
        Api.Sarray.set ~site:(site_of s) rt.arrays.(a) i v
  | Ast.Slet (name, e) ->
      let e = expr env sc e in
      let outer = resolve env sc name in
      let k = declare sc name (fun k -> if late then Late (k, outer) else Local k) in
      fun rt fr -> fr.(k) <- e rt fr
  | Ast.Sif (cond, then_, else_) -> (
      let cond = expr env sc cond and then_ = block env sc then_ in
      match else_ with
      | None -> fun rt fr -> if as_bool pos (cond rt fr) then then_ rt fr
      | Some else_ ->
          let else_ = block env sc else_ in
          fun rt fr -> if as_bool pos (cond rt fr) then then_ rt fr else else_ rt fr)
  | Ast.Swhile (cond, body) ->
      let cond = expr env sc cond and body = block env sc body in
      fun rt fr ->
        while as_bool pos (cond rt fr) do
          body rt fr;
          (* loop back-edge safepoint: a pure-local loop must still yield *)
          Op.perform Op.Pause
        done
  | Ast.Sfor (init, cond, step, body) ->
      (* one scope for the header, compiled in the checker's order (init,
         cond, step, body): a [let] step is in scope in the body, which
         runs before the step first does, hence [Late] *)
      in_block sc (fun () ->
          let init = stmt env sc init in
          let cond = expr env sc cond in
          let step_let = sc.next in
          let step = stmt ~late:true env sc step in
          let step_let = if sc.next > step_let then Some step_let else None in
          let body = block env sc body in
          let loop rt fr =
            init rt fr;
            while as_bool pos (cond rt fr) do
              body rt fr;
              step rt fr;
              Op.perform Op.Pause
            done
          in
          match step_let with
          | None -> loop
          | Some k ->
              fun rt fr ->
                fr.(k) <- undefined;
                loop rt fr)
  | Ast.Ssync (l, body) ->
      let body = block env sc body and k = List.assoc l env.locks in
      let s = site env pos (Fmt.str "sync(%s)" l) in
      fun rt fr -> Api.sync ~site:(site_of s) rt.locks.(k) (fun () -> body rt fr)
  | Ast.Slock l -> monitor l "lock" (fun ~site l -> Api.lock ~site l)
  | Ast.Sunlock l -> monitor l "unlock" (fun ~site l -> Api.unlock ~site l)
  | Ast.Swait l -> monitor l "wait" (fun ~site l -> Api.wait ~site l)
  | Ast.Snotify l -> monitor l "notify" (fun ~site l -> Api.notify ~site l)
  | Ast.Snotify_all l -> monitor l "notifyall" (fun ~site l -> Api.notify_all ~site l)
  | Ast.Ssleep ->
      let s = site env pos "sleep" in
      fun _ _ -> Api.sleep ~site:(site_of s) ()
  | Ast.Sassert e ->
      let e = expr env sc e in
      fun rt fr ->
        if not (as_bool pos (e rt fr)) then
          model_error "assertion failed at %a" Token.pp_pos pos
  | Ast.Serror msg -> fun _ _ -> raise (Api.Model_error msg)
  | Ast.Sprint e ->
      let e = expr env sc e in
      fun rt fr -> env.print (string_of_value (e rt fr))
  | Ast.Sskip -> nop
  | Ast.Sreturn None -> fun _ _ -> raise return_unit
  | Ast.Sreturn (Some e) ->
      let e = expr env sc e in
      fun rt fr -> raise (Return_exn (e rt fr))
  | Ast.Scall (name, args) ->
      let c = call env sc name args in
      fun rt fr -> ignore (c rt fr)

(* A block is one scope: its [let]s are compiled in order, each visible
   from the next statement on. *)
and block env sc stmts =
  in_block sc (fun () ->
      seq (List.rev (List.fold_left (fun acc s -> stmt env sc s :: acc) [] stmts)))

(* ------------------------------------------------------------------ *)
(* Program                                                             *)

let index_by name_of xs = List.mapi (fun i x -> (name_of x, i)) xs

(** Compile [prog] and return the main of one run: allocate the shared
    cells, then the locks, in declaration order (so {!Rf_util.Loc} and
    {!Rf_runtime.Lock} ids are the same on every run), fork every declared
    thread and join them all.

    Threads with an [after] clause are forked only once every dependency
    has been joined, so the declared fork/join DAG induces real
    happens-before edges: statements of a dependent thread can never run
    concurrently with statements of its (transitive) dependencies. *)
let compile ?(print = print_endline) (prog : Ast.program) : unit -> unit =
  let scalars, arrays =
    List.partition (fun (g : Ast.shared_decl) -> g.Ast.garray = None) prog.Ast.shareds
  in
  let globals =
    List.map (fun (n, i) -> (n, Cell i)) (index_by (fun g -> g.Ast.gname) scalars)
    @ List.map (fun (n, i) -> (n, Array i)) (index_by (fun g -> g.Ast.gname) arrays)
  in
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        ( f.Ast.fname,
          { fret = f.Ast.fret; slots = 0; body = nop } ))
      prog.Ast.funcs
  in
  let env =
    { file = prog.Ast.file; print; globals; locks = index_by fst prog.Ast.locks; funcs }
  in
  (* bodies are compiled after every function exists, so calls (recursive
     ones included) resolve to the [func] record *)
  List.iter
    (fun (f : Ast.func) ->
      let sc = new_scope () in
      List.iter (fun (p, _) -> ignore (declare sc p (fun k -> Local k))) f.Ast.fparams;
      let body = block env sc f.Ast.fbody in
      let cf = List.assoc f.Ast.fname funcs in
      cf.slots <- sc.size;
      cf.body <- body)
    prog.Ast.funcs;
  let thread_ix = index_by (fun (t : Ast.thread_decl) -> t.Ast.tname) prog.Ast.threads in
  let threads =
    Array.of_list
      (List.map
         (fun (t : Ast.thread_decl) ->
           let sc = new_scope () in
           let body = block env sc t.Ast.tbody in
           (t.Ast.tname, List.map (fun d -> List.assoc d thread_ix) t.Ast.tafter, sc.size, body))
         prog.Ast.threads)
  in
  let shareds =
    List.map
      (fun (g : Ast.shared_decl) -> (g.Ast.gname, g.Ast.garray, value_of_const g.Ast.ginit))
      prog.Ast.shareds
  in
  fun () ->
    let cells = ref [] and arrs = ref [] in
    List.iter
      (fun (name, size, init) ->
        match size with
        | None -> cells := Api.Cell.global name init :: !cells
        | Some n -> arrs := Api.Sarray.make n init :: !arrs)
      shareds;
    let rt =
      {
        cells = Array.of_list (List.rev !cells);
        arrays = Array.of_list (List.rev !arrs);
        locks =
          Array.of_list (List.map (fun (name, _) -> Lock.create ~name ()) prog.Ast.locks);
      }
    in
    let handles = Array.make (Array.length threads) None in
    let joined = Array.make (Array.length threads) false in
    let join i =
      if not joined.(i) then begin
        Option.iter Api.join handles.(i);
        joined.(i) <- true
      end
    in
    Array.iteri
      (fun i (name, after, slots, body) ->
        (* dependencies are declared (and hence forked) earlier: join each
           one not yet joined before forking the dependent *)
        List.iter join after;
        handles.(i) <-
          Some (Api.fork ~name (fun () -> body rt (Array.make slots undefined))))
      threads;
    Array.iteri (fun i _ -> join i) threads
