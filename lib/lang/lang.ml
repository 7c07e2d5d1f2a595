(** Front-end for RFL: parse, check, and package programs for the engine
    and the fuzzer. *)

exception Error of string

let () =
  Printexc.register_printer (function
    | Error m -> Some (Printf.sprintf "RFL error: %s" m)
    | _ -> None)

let wrap_errors file f =
  try f () with
  | Lexer.Lex_error (pos, m) ->
      raise (Error (Fmt.str "%s:%a: lexical error: %s" file Token.pp_pos pos m))
  | Parser.Parse_error (pos, m) ->
      raise (Error (Fmt.str "%s:%a: parse error: %s" file Token.pp_pos pos m))
  | Check.Check_error (pos, m) ->
      raise (Error (Fmt.str "%s:%a: %s" file Token.pp_pos pos m))

(** Parse only (no static checks). *)
let parse_string ?(file = "<string>") src =
  wrap_errors file (fun () -> Parser.parse_program ~file src)

(** Parse and statically check. *)
let load_string ?(file = "<string>") src =
  wrap_errors file (fun () ->
      let prog = Parser.parse_program ~file src in
      Check.check prog;
      prog)

let load_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  load_string ~file:(Filename.basename path) src

(** The [unit -> unit] main suitable for {!Rf_runtime.Engine.run} and
    {!Racefuzzer.Fuzzer}. *)
let program ?print (prog : Ast.program) : unit -> unit = Interp.compile ?print prog

(** Convenience: source text straight to a runnable main. *)
let program_of_string ?file ?print src = program ?print (load_string ?file src)
