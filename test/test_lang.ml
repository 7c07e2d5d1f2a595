(* Tests for the RFL front-end: lexer, parser, static checker, interpreter
   semantics, and end-to-end RaceFuzzer analysis of DSL programs. *)

open Rf_util
open Rf_lang

let run ?(seed = 0) ?(strategy = Rf_runtime.Strategy.random ()) main =
  Rf_runtime.Engine.run
    ~config:{ Rf_runtime.Engine.default_config with seed }
    ~strategy main

let run_collect ?(seed = 0) src =
  let out = ref [] in
  let main = Lang.program_of_string ~print:(fun s -> out := s :: !out) src in
  let o = run ~seed ~strategy:(Rf_runtime.Strategy.round_robin ()) main in
  (o, List.rev !out)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let test_lex_basic () =
  let toks = List.map fst (Lexer.tokenize "let x = 41 + foo(2); // comment") in
  Alcotest.(check int) "token count" 11 (List.length toks);
  (match toks with
  | Token.LET :: Token.IDENT "x" :: Token.ASSIGN :: Token.INT 41 :: Token.PLUS
    :: Token.IDENT "foo" :: Token.LPAREN :: Token.INT 2 :: _ ->
      ()
  | _ -> Alcotest.fail "unexpected token stream");
  Alcotest.(check bool) "ends with EOF" true (List.nth toks 10 = Token.EOF)

let test_lex_operators () =
  let toks = List.map fst (Lexer.tokenize "== != <= >= < > && || ! -> = - %") in
  Alcotest.(check (list string)) "operators"
    [ "=="; "!="; "<="; ">="; "<"; ">"; "&&"; "||"; "!"; "->"; "="; "-"; "%"; "<eof>" ]
    (List.map Token.to_string toks)

let test_lex_positions () =
  let toks = Lexer.tokenize "x\n  y" in
  match toks with
  | [ (Token.IDENT "x", p1); (Token.IDENT "y", p2); (Token.EOF, _) ] ->
      Alcotest.(check int) "x line" 1 p1.Token.line;
      Alcotest.(check int) "y line" 2 p2.Token.line;
      Alcotest.(check int) "y col" 3 p2.Token.col
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_string_escapes () =
  match Lexer.tokenize {|"a\nb\"c"|} with
  | [ (Token.STRING s, _); (Token.EOF, _) ] ->
      Alcotest.(check string) "unescaped" "a\nb\"c" s
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_block_comment () =
  let toks = List.map fst (Lexer.tokenize "a /* b\n c */ d") in
  Alcotest.(check int) "comment skipped" 3 (List.length toks)

let test_lex_errors () =
  Alcotest.check_raises "bad char"
    (Lexer.Lex_error ({ Token.line = 1; col = 1 }, "unexpected character '#'"))
    (fun () -> ignore (Lexer.tokenize "#"));
  (try
     ignore (Lexer.tokenize "\"unterminated");
     Alcotest.fail "expected error"
   with Lexer.Lex_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let parse src = Lang.parse_string src

let test_parse_figure1_shape () =
  let prog =
    parse
      {| shared int x; shared int y; shared int z; lock L;
         thread t1 { x = 1; sync (L) { y = 1; } if (z == 1) { error "E1"; } }
         thread t2 { z = 1; sync (L) { if (y == 1) { if (x != 1) { error "E2"; } } } }
      |}
  in
  Alcotest.(check int) "3 shareds" 3 (List.length prog.Ast.shareds);
  Alcotest.(check int) "1 lock" 1 (List.length prog.Ast.locks);
  Alcotest.(check int) "2 threads" 2 (List.length prog.Ast.threads)

let test_parse_precedence () =
  let prog = parse "shared int r; thread t { r = 1 + 2 * 3; }" in
  match (List.hd prog.Ast.threads).Ast.tbody with
  | [ { Ast.s = Ast.Sassign ("r", { Ast.e = Ast.Ebin (Ast.Add, _, rhs); _ }); _ } ] -> (
      match rhs.Ast.e with
      | Ast.Ebin (Ast.Mul, _, _) -> ()
      | _ -> Alcotest.fail "* should bind tighter than +")
  | _ -> Alcotest.fail "unexpected ast"

let test_parse_else_if () =
  let prog =
    parse
      "shared int r; thread t { if (r == 0) { skip; } else if (r == 1) { skip; } else { skip; } }"
  in
  match (List.hd prog.Ast.threads).Ast.tbody with
  | [ { Ast.s = Ast.Sif (_, _, Some [ { Ast.s = Ast.Sif (_, _, Some _); _ } ]); _ } ] ->
      ()
  | _ -> Alcotest.fail "else-if chain not parsed"

let test_parse_for_loop () =
  let prog = parse "shared int r; thread t { for (let i = 0; i < 3; i = i + 1) { r = i; } }" in
  match (List.hd prog.Ast.threads).Ast.tbody with
  | [ { Ast.s = Ast.Sfor _; _ } ] -> ()
  | _ -> Alcotest.fail "for not parsed"

let test_parse_func_decl () =
  let prog = parse "def f(int a, bool b) -> int { return a; } thread t { let x = f(1, true); }" in
  match prog.Ast.funcs with
  | [ f ] ->
      Alcotest.(check string) "name" "f" f.Ast.fname;
      Alcotest.(check int) "2 params" 2 (List.length f.Ast.fparams);
      Alcotest.(check bool) "returns int" true (f.Ast.fret = Some Ast.Tint)
  | _ -> Alcotest.fail "function not parsed"

let test_parse_array_decl () =
  let prog = parse "shared int[8] a; thread t { a[0] = a[1] + 1; }" in
  match prog.Ast.shareds with
  | [ g ] -> Alcotest.(check bool) "array of 8" true (g.Ast.garray = Some 8)
  | _ -> Alcotest.fail "array not parsed"

let test_parse_errors () =
  let bad src =
    try
      ignore (Lang.parse_string src);
      Alcotest.failf "expected parse error for %s" src
    with Lang.Error _ -> ()
  in
  bad "thread t { x = ; }";
  bad "thread t { if x { skip; } }";
  bad "thread { skip; }";
  bad "shared int x thread t { skip; }";
  bad "thread t { lock L; }" (* statement form requires parens *)

(* ------------------------------------------------------------------ *)
(* Checker                                                             *)

let test_check_accepts_valid () =
  ignore
    (Lang.load_string
       {| shared int x = 1; shared bool f = false; shared int[4] a; lock L;
          def inc(int v) -> int { return v + 1; }
          def touch() { a[0] = inc(x); return; }
          thread t1 { let i = 0; while (i < 4) { a[i] = inc(i); i = i + 1; } }
          thread t2 { sync (L) { x = inc(x); } if (f) { touch(); } }
       |})

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let check_fails ?(needle = "") src =
  try
    ignore (Lang.load_string src);
    Alcotest.failf "expected check error for: %s" src
  with Lang.Error m ->
    if needle <> "" && not (contains m needle) then
      Alcotest.failf "error %S does not mention %S" m needle

let test_check_rejects () =
  let bad needle src = check_fails ~needle src in
  bad "unknown variable" "thread t { x = 1; }";
  bad "unknown lock" "thread t { sync (L) { skip; } }";
  bad "unknown function" "thread t { f(); }";
  bad "duplicate shared" "shared int x; shared int x; thread t { skip; }";
  bad "duplicate local" "thread t { let x = 1; let x = 2; }";
  bad "expects 1 argument" "def f(int a) { return; } thread t { f(); }";
  bad "expected bool" "shared int x; thread t { if (x) { skip; } }";
  bad "expected int" "shared int x; thread t { x = true; }";
  bad "not an array" "shared int x; thread t { x[0] = 1; }";
  bad "whole array" "shared int[2] a; thread t { a = 1; }";
  bad "return outside" "thread t { return; }";
  bad "must be a constant" "shared int x; shared int y = 1 + 2; thread t { skip; }";
  bad "no threads" "shared int x;";
  bad "compare" "shared int x; shared bool b; thread t { b = x == b; }"

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                               *)

let test_interp_arithmetic () =
  let _, out =
    run_collect
      {| shared int r;
         thread t { r = (2 + 3) * 4 - 10 / 2; print r; print r % 3; print -r; } |}
  in
  Alcotest.(check (list string)) "arithmetic" [ "15"; "0"; "-15" ] out

let test_interp_bool_shortcircuit () =
  (* the right operand of && must not evaluate when the left is false:
     division by zero would raise *)
  let o, out =
    run_collect
      {| shared int zero; shared bool r;
         thread t { r = false && (1 / zero == 1); print r;
                    r = true || (1 / zero == 1); print r; } |}
  in
  Alcotest.(check bool) "no exception" true (o.Rf_runtime.Outcome.exceptions = []);
  Alcotest.(check (list string)) "short circuit" [ "false"; "true" ] out

let test_interp_while_for () =
  let _, out =
    run_collect
      {| shared int sum;
         thread t {
           for (let i = 1; i <= 5; i = i + 1) { sum = sum + i; }
           let j = 0;
           while (j < 3) { sum = sum + 100; j = j + 1; }
           print sum;
         } |}
  in
  Alcotest.(check (list string)) "loops" [ "315" ] out

let test_interp_functions () =
  let _, out =
    run_collect
      {| def fact(int n) -> int { if (n <= 1) { return 1; } return n * fact(n - 1); }
         def even(int n) -> bool { if (n % 2 == 0) { return true; } return false; }
         thread t { print fact(6); print even(fact(4)); } |}
  in
  Alcotest.(check (list string)) "recursion" [ "720"; "true" ] out

let test_interp_arrays () =
  let _, out =
    run_collect
      {| shared int[5] a;
         thread t {
           for (let i = 0; i < 5; i = i + 1) { a[i] = i * i; }
           print a[0] + a[1] + a[2] + a[3] + a[4];
         } |}
  in
  Alcotest.(check (list string)) "array sum" [ "30" ] out

let test_interp_locals_shadow_globals () =
  let _, out =
    run_collect
      {| shared int x = 7;
         thread t { let x = 1; print x; }
         thread u { print x; } |}
  in
  Alcotest.(check (list string)) "shadowing" [ "1"; "7" ] out

let test_interp_array_oob () =
  let o, _ = run_collect "shared int[2] a; thread t { a[5] = 1; }" in
  Alcotest.(check int) "one exception" 1 (List.length o.Rf_runtime.Outcome.exceptions)

let test_interp_div_by_zero () =
  let o, _ = run_collect "shared int x; thread t { x = 1 / x; }" in
  match o.Rf_runtime.Outcome.exceptions with
  | [ { Rf_runtime.Outcome.exn_ = Rf_runtime.Api.Model_error m; _ } ] ->
      Alcotest.(check bool) "mentions zero" true (contains m "zero")
  | _ -> Alcotest.fail "expected division error"

let test_interp_assert_error () =
  let o, _ = run_collect "shared int x; thread t { assert x == 1; }" in
  Alcotest.(check int) "assert fails" 1 (List.length o.Rf_runtime.Outcome.exceptions)

let test_interp_sync_mutex () =
  (* locked increments from two threads never lose updates *)
  for seed = 0 to 19 do
    let src =
      {| shared int n; lock L;
         thread a { for (let i = 0; i < 5; i = i + 1) { sync (L) { n = n + 1; } } }
         thread b { for (let i = 0; i < 5; i = i + 1) { sync (L) { n = n + 1; } } }
         thread check { skip; } |}
    in
    let main = Lang.program_of_string src in
    let o = run ~seed main in
    Alcotest.(check bool) "ok" true (Rf_runtime.Outcome.ok o)
  done

let test_interp_wait_notify () =
  let _, out =
    run_collect
      {| shared bool ready; shared int data; lock M;
         thread consumer {
           sync (M) { while (!ready) { wait(M); } }
           print data;
         }
         thread producer {
           data = 42;
           sync (M) { ready = true; notify(M); }
         } |}
  in
  Alcotest.(check (list string)) "handshake value" [ "42" ] out

let test_interp_return_releases_sync () =
  (* [find] returns from inside [sync] inside a [for], recursively, so the
     return unwinds several reentrant holds of L.  [u] can only set [done]
     once L is free again; if any hold leaked, [t] would spin on [done]
     until the step bound. *)
  let o, out =
    run_collect
      {| shared int n; shared bool done; lock L;
         def find(int d) -> int {
           for (let i = 0; i < 10; i = i + 1) {
             sync (L) {
               n = n + 1;
               if (i == 2) { if (d > 0) { return find(d - 1) + 1; } return 0; }
             }
           }
           return 100;
         }
         thread t { print find(3); while (!done) { skip; } print n; }
         thread u { let k = 0; while (k < 50) { k = k + 1; }
                    sync (L) { done = true; } } |}
  in
  Alcotest.(check bool) "ok" true (Rf_runtime.Outcome.ok o);
  Alcotest.(check (list string)) "result, then every increment" [ "3"; "12" ] out

let test_interp_let_fresh_per_iteration () =
  (* Before the body's [let x] runs, [x] names the global again on every
     iteration: the previous iteration's local does not survive. *)
  let _, out =
    run_collect
      {| shared int x = 7;
         thread t {
           let i = 0;
           while (i < 3) {
             print x;
             let x = i * 10;
             print x;
             i = i + 1;
           }
           for (let j = 0; j < 2; j = j + 1) { print x; let x = j + 1; print x; }
         } |}
  in
  Alcotest.(check (list string)) "fresh locals"
    [ "7"; "0"; "7"; "10"; "7"; "20"; "7"; "1"; "7"; "2" ]
    out

let test_interp_for_step_let () =
  (* A [let] used as a [for] step is in scope in the body, but the body
     runs before the step first does: until then [j] still names the
     global, for reads and writes alike, on every entry to the loop. *)
  let _, out =
    run_collect
      {| shared int j = 7;
         thread t {
           let r = 0;
           while (r < 2) {
             for (let i = 0; i < 3; let j = i * 10) { print j; j = j + 1; i = i + 1; }
             print j;
             r = r + 1;
           }
         } |}
  in
  Alcotest.(check (list string)) "global until the step runs"
    [ "7"; "10"; "20"; "8"; "8"; "10"; "20"; "9" ]
    out

let test_interp_nested_shadowing () =
  let _, out =
    run_collect
      {| shared int v = 1;
         def f(int v) -> int {
           let r = v;
           if (true) {
             let v = v + 100;
             r = r + v;
             if (true) { let v = 1000; r = r + v; }
             r = r + v;
           }
           return r + v;
         }
         thread t {
           print f(5);
           print v;
           let v = 2;
           if (true) { let v = 3; print v; v = 4; print v; }
           print v;
         } |}
  in
  Alcotest.(check (list string)) "innermost binding wins"
    [ "1220"; "1"; "3"; "4"; "2" ]
    out

(* The exact text of each run-time model error: error fingerprints and
   repro files contain it. *)
let test_interp_error_texts () =
  let error_of src =
    let o, _ = run_collect src in
    match o.Rf_runtime.Outcome.exceptions with
    | [ { Rf_runtime.Outcome.exn_ = Rf_runtime.Api.Model_error m; _ } ] -> m
    | _ -> Alcotest.failf "expected exactly one model error from %s" src
  in
  Alcotest.(check string) "division" "division by zero at 1:32"
    (error_of "shared int x; thread t { x = 1 / x; }");
  Alcotest.(check string) "modulo" "modulo by zero at 1:32"
    (error_of "shared int x; thread t { x = 1 % x; }");
  Alcotest.(check string) "bounds" "array index 5 out of bounds [0,2)"
    (error_of "shared int[2] a; thread t { a[5] = 1; }");
  Alcotest.(check string) "read bounds" "array index -1 out of bounds [0,2)"
    (error_of "shared int[2] a; thread t { let i = a[0 - 1]; }");
  Alcotest.(check string) "assert" "assertion failed at 1:26"
    (error_of "shared int x; thread t { assert x == 1; }");
  Alcotest.(check string) "missing return"
    "function f ended without returning a value"
    (error_of
       "def f(int n) -> int { if (n > 0) { return 1; } } thread t { print f(0); }")

let test_interp_deadlock_detected () =
  let main =
    Lang.program_of_string
      {| lock A; lock B;
         thread t1 { sync (A) { sync (B) { skip; } } }
         thread t2 { sync (B) { sync (A) { skip; } } } |}
  in
  let deadlocks = ref 0 in
  for seed = 0 to 29 do
    let o = run ~seed main in
    if Rf_runtime.Outcome.deadlocked o then incr deadlocks
  done;
  Alcotest.(check bool) "some seeds deadlock" true (!deadlocks > 0)

(* ------------------------------------------------------------------ *)
(* End-to-end: Figure 1 as a DSL program                               *)

let figure1_src =
  {|// Figure 1 of the paper, in RFL
shared int x; shared int y; shared int z;
lock L;
thread thread1 {
  x = 1;
  sync (L) { y = 1; }
  if (z == 1) { error "ERROR1"; }
}
thread thread2 {
  z = 1;
  sync (L) {
    if (y == 1) {
      if (x != 1) { error "ERROR2"; }
    }
  }
}
|}

let test_dsl_figure1_full_pipeline () =
  let prog = Lang.load_string ~file:"fig1.rfl" figure1_src in
  let main = Lang.program ~print:ignore prog in
  let a =
    Racefuzzer.Fuzzer.analyze
      ~phase1_seeds:(List.init 10 Fun.id)
      ~seeds_per_pair:(List.init 60 Fun.id)
      main
  in
  let potential = Racefuzzer.Fuzzer.potential_pairs a.Racefuzzer.Fuzzer.a_phase1 in
  Alcotest.(check int) "two potential pairs" 2 (Site.Pair.Set.cardinal potential);
  Alcotest.(check int) "one real race" 1
    (Site.Pair.Set.cardinal a.Racefuzzer.Fuzzer.real_pairs);
  Alcotest.(check int) "one harmful race" 1
    (Site.Pair.Set.cardinal a.Racefuzzer.Fuzzer.error_pairs);
  (* the real pair must be the z pair: sites at lines 7 (read) and 11 (write) *)
  let real = Site.Pair.Set.choose a.Racefuzzer.Fuzzer.real_pairs in
  let lines = [ Site.line (Site.Pair.fst real); Site.line (Site.Pair.snd real) ] in
  Alcotest.(check (list int)) "z pair lines" [ 7; 10 ] (List.sort compare lines)

let test_dsl_replay_determinism () =
  let main = Lang.program ~print:ignore (Lang.load_string ~file:"fig1r.rfl" figure1_src) in
  let tr seed =
    let o =
      Rf_runtime.Engine.run
        ~config:{ Rf_runtime.Engine.default_config with seed; record_trace = true }
        ~strategy:(Rf_runtime.Strategy.random ()) main
    in
    Option.get o.Rf_runtime.Outcome.trace
  in
  Alcotest.(check bool) "same seed, same DSL trace" true
    (Rf_events.Trace.equal (tr 11) (tr 11))

let () =
  Alcotest.run "rf_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "string escapes" `Quick test_lex_string_escapes;
          Alcotest.test_case "block comment" `Quick test_lex_block_comment;
          Alcotest.test_case "errors" `Quick test_lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "figure1 shape" `Quick test_parse_figure1_shape;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "else-if" `Quick test_parse_else_if;
          Alcotest.test_case "for" `Quick test_parse_for_loop;
          Alcotest.test_case "func decl" `Quick test_parse_func_decl;
          Alcotest.test_case "array decl" `Quick test_parse_array_decl;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts valid" `Quick test_check_accepts_valid;
          Alcotest.test_case "rejects invalid" `Quick test_check_rejects;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arithmetic;
          Alcotest.test_case "short circuit" `Quick test_interp_bool_shortcircuit;
          Alcotest.test_case "loops" `Quick test_interp_while_for;
          Alcotest.test_case "functions" `Quick test_interp_functions;
          Alcotest.test_case "arrays" `Quick test_interp_arrays;
          Alcotest.test_case "shadowing" `Quick test_interp_locals_shadow_globals;
          Alcotest.test_case "array oob" `Quick test_interp_array_oob;
          Alcotest.test_case "div by zero" `Quick test_interp_div_by_zero;
          Alcotest.test_case "assert" `Quick test_interp_assert_error;
          Alcotest.test_case "sync mutex" `Quick test_interp_sync_mutex;
          Alcotest.test_case "wait/notify" `Quick test_interp_wait_notify;
          Alcotest.test_case "deadlock" `Quick test_interp_deadlock_detected;
          Alcotest.test_case "return releases sync" `Quick
            test_interp_return_releases_sync;
          Alcotest.test_case "let fresh per iteration" `Quick
            test_interp_let_fresh_per_iteration;
          Alcotest.test_case "for-step let" `Quick test_interp_for_step_let;
          Alcotest.test_case "nested shadowing" `Quick test_interp_nested_shadowing;
          Alcotest.test_case "error texts" `Quick test_interp_error_texts;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "figure1 pipeline" `Quick test_dsl_figure1_full_pipeline;
          Alcotest.test_case "replay determinism" `Quick test_dsl_replay_determinism;
        ] );
    ]
