(* The one JSON codec (see the interface for what reads and writes
   through it).  Hand-rolled: the toolchain has no JSON dependency, and
   the subset is small enough that owning it keeps every format's bytes
   under this repository's control. *)

type t =
  | I of int
  | F of float
  | S of string
  | B of bool
  | Null
  | A of t list
  | O of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(* Escape [s] straight into [buf]: runs of bytes that need no escape go
   in as one substring, so a plain key or value costs one blit. *)
let add_escaped buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !start then Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
          Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]);
      start := i + 1
    end
  done;
  if n > !start then Buffer.add_substring buf s !start (n - !start)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

let scalar buf = function
  | I n -> Buffer.add_string buf (string_of_int n)
  | F x -> Buffer.add_string buf (Printf.sprintf "%.6f" x)
  | S s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | B b -> Buffer.add_string buf (if b then "true" else "false")
  | Null -> Buffer.add_string buf "null"
  | A _ | O _ -> invalid_arg "Json.render_flat: a field is not a scalar"

let render_flat fields =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      scalar buf (S k);
      Buffer.add_char buf ':';
      scalar buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading: strict recursive descent over the whole input              *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos >= n then fail "unexpected end of input" else s.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then fail "expected %C at offset %d" c !pos else advance ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub s (!pos + 1) 4)
                with _ -> fail "bad \\u escape at offset %d" !pos
              in
              pos := !pos + 4;
              (* the writers escape only control bytes; anything wider is
                 kept as its escape text *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_string buf (Printf.sprintf "\\u%04x" code)
          | c -> fail "bad escape \\%C at offset %d" c !pos);
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal at offset %d" !pos
  in
  (* [close] ends the sequence; [item] parses one element *)
  let sequence close item =
    advance ();
    skip_ws ();
    if peek () = close then advance ()
    else
      let rec go () =
        item ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            go ()
        | c when c = close -> advance ()
        | c -> fail "expected ',' or %C at offset %d, got %C" close !pos c
      in
      go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> S (parse_string ())
    | '{' ->
        let fields = ref [] in
        sequence '}' (fun () ->
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            fields := (k, value ()) :: !fields);
        O (List.rev !fields)
    | '[' ->
        let items = ref [] in
        sequence ']' (fun () -> items := value () :: !items);
        A (List.rev !items)
    | 't' -> literal "true" (B true)
    | 'f' -> literal "false" (B false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        let is_float = ref false in
        while
          !pos < n
          &&
          match s.[!pos] with
          | '0' .. '9' | '-' | '+' -> true
          | '.' | 'e' | 'E' ->
              is_float := true;
              true
          | _ -> false
        do
          advance ()
        done;
        let tok = String.sub s start (!pos - start) in
        if tok = "" then fail "unexpected %C at offset %d" s.[start] start
        else if !is_float then
          F (try float_of_string tok with _ -> fail "bad number %S" tok)
        else I (try int_of_string tok with _ -> fail "bad number %S" tok)
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

let parse_flat line =
  match parse line with
  | O fields
    when List.for_all (fun (_, v) -> match v with A _ | O _ -> false | _ -> true) fields
    ->
      Some fields
  | _ -> None
  | exception Error _ -> None

(* ------------------------------------------------------------------ *)
(* Line seals.

   A sealed line ends with a "crc" field: the FNV-1a-64 hex digest of
   the line as rendered without it.  It catches what a torn-tail check
   cannot: a partially overwritten middle line, bit rot, a hand edit.
   Unsealed lines (journals older than schema v3) check as absent, not
   bad, so they still load. *)

let crc_marker = ",\"crc\":\""

(* marker + 16 hex digits + closing quote and brace *)
let crc_suffix_len = String.length crc_marker + 16 + 2

let seal line =
  let n = String.length line in
  if n = 0 || line.[n - 1] <> '}' then line
  else String.sub line 0 (n - 1) ^ crc_marker ^ Fnv.hex63 line ^ "\"}"

type seal_status = Sealed_ok | Sealed_bad | Unsealed

let check_seal line =
  let n = String.length line in
  if n < crc_suffix_len + 2 then Unsealed
  else if
    String.sub line (n - crc_suffix_len) (String.length crc_marker) <> crc_marker
    || line.[n - 1] <> '}'
    || line.[n - 2] <> '"'
  then Unsealed
  else
    let crc = String.sub line (n - 18) 16 in
    let original = String.sub line 0 (n - crc_suffix_len) ^ "}" in
    if Fnv.hex63 original = crc then Sealed_ok else Sealed_bad

(* ------------------------------------------------------------------ *)
(* Files and fields                                                    *)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let str fields k = match List.assoc_opt k fields with Some (S s) -> Some s | _ -> None
let int fields k = match List.assoc_opt k fields with Some (I n) -> Some n | _ -> None
let bool fields k = match List.assoc_opt k fields with Some (B b) -> Some b | _ -> None

let num fields k =
  match List.assoc_opt k fields with
  | Some (F x) -> Some x
  | Some (I n) -> Some (float_of_int n)
  | _ -> None
