(* Persistent cross-campaign corpus.

   Durability discipline is the journal's, reused wholesale: flat JSON
   lines through the one codec ({!Rf_util.Json.render_flat}), each line
   CRC-sealed ({!Rf_util.Json.seal}), the whole index rewritten
   through {!Atomic_file} so there is never a moment when the on-disk
   index is half-new.  A crash mid-update costs the update, never the
   corpus. *)

open Rf_util

type entry = {
  e_kind : string;
  e_key : string;
  e_target : string;
  e_pair : string;
  e_seed : int;
  e_file : string;
  e_crc : string;
  e_seen : int;
}

type summary = { cs_added : int; cs_deduped : int; cs_total : int }

let index_file dir = Filename.concat dir "index.json"
let header_line = Json.seal {|{"corpus":1}|}

let entry ~kind ~key ?(target = "") ?(pair = "") ?(seed = -1) () =
  {
    e_kind = kind;
    e_key = key;
    e_target = target;
    e_pair = pair;
    e_seed = seed;
    e_file = "";
    e_crc = "";
    e_seen = 1;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_crc path = Fnv.hex63 (read_file path)

let ingest_file ~dir ~kind ~key ?(target = "") ?(pair = "") ?(seed = -1) ~src ()
    =
  Atomic_file.mkdir_p dir;
  let base = Filename.basename src in
  let dst = Filename.concat dir base in
  let already_inside =
    Sys.file_exists dst
    &&
    try (Unix.stat dst).Unix.st_ino = (Unix.stat src).Unix.st_ino
    with Unix.Unix_error _ -> false
  in
  if not already_inside then Atomic_file.write_string dst (read_file src);
  {
    e_kind = kind;
    e_key = key;
    e_target = target;
    e_pair = pair;
    e_seed = seed;
    e_file = base;
    e_crc = file_crc dst;
    e_seen = 1;
  }

(* ------------------------------------------------------------------ *)
(* Index codec: one sealed flat object per entry. *)

let to_json e =
  Json.(
    render_flat
      [
        ("kind", S e.e_kind);
        ("key", S e.e_key);
        ("target", S e.e_target);
        ("pair", S e.e_pair);
        ("seed", I e.e_seed);
        ("file", S e.e_file);
        ("crc", S e.e_crc);
        ("seen", I e.e_seen);
      ])

let entry_of_fields fields =
  match
    ( Json.str fields "kind",
      Json.str fields "key",
      Json.int fields "seed",
      Json.int fields "seen" )
  with
  | Some e_kind, Some e_key, Some e_seed, Some e_seen ->
      let str k = Option.value ~default:"" (Json.str fields k) in
      Some
        {
          e_kind;
          e_key;
          e_target = str "target";
          e_pair = str "pair";
          e_seed;
          e_file = str "file";
          e_crc = str "crc";
          e_seen;
        }
  | _ -> None

(* Tolerant read: the crash-recovery path.  Bad seals and torn lines are
   skipped — the next [update] rewrites a clean index. *)
let load dir =
  let path = index_file dir in
  if not (Sys.file_exists path) then []
  else
    Json.read_lines path
    |> List.filter_map (fun line ->
           if String.trim line = "" then None
           else
             match Json.check_seal line with
             | Json.Sealed_ok -> (
                 match Json.parse_flat line with
                 | Some fields when List.mem_assoc "corpus" fields ->
                     None  (* header *)
                 | Some fields -> entry_of_fields fields
                 | None -> None)
             | Json.Sealed_bad | Json.Unsealed -> None)

let save dir entries =
  Atomic_file.mkdir_p dir;
  Atomic_file.write (index_file dir) (fun oc ->
      output_string oc header_line;
      output_char oc '\n';
      List.iter
        (fun e ->
          output_string oc (Json.seal (to_json e));
          output_char oc '\n')
        entries)

let update ~dir fresh =
  let existing = load dir in
  let by_key = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace by_key (e.e_kind, e.e_key) e) existing;
  let added = ref 0 and deduped = ref 0 in
  let merged =
    List.fold_left
      (fun acc e ->
        match Hashtbl.find_opt by_key (e.e_kind, e.e_key) with
        | Some _ ->
            incr deduped;
            acc
        | None ->
            incr added;
            Hashtbl.replace by_key (e.e_kind, e.e_key) e;
            e :: acc)
      [] fresh
    |> List.rev
  in
  let bump =
    (* A fresh duplicate has already been ingested: when its artifact
       shares the existing entry's basename, the file on disk now holds
       the fresh bytes (a re-minimized repro of the same error), so the
       index must take the fresh file/crc or strict verify would flag a
       mismatch forever.  Distinct basenames keep the original artifact. *)
    let dup_fresh = Hashtbl.create 16 in
    List.iter
      (fun e ->
        if
          List.exists
            (fun x -> x.e_kind = e.e_kind && x.e_key = e.e_key)
            existing
        then Hashtbl.replace dup_fresh (e.e_kind, e.e_key) e)
      fresh;
    fun e ->
      match Hashtbl.find_opt dup_fresh (e.e_kind, e.e_key) with
      | Some f when f.e_file = e.e_file ->
          { e with e_crc = f.e_crc; e_seen = e.e_seen + 1 }
      | Some _ -> { e with e_seen = e.e_seen + 1 }
      | None -> e
  in
  let all = List.map bump existing @ merged in
  save dir all;
  { cs_added = !added; cs_deduped = !deduped; cs_total = List.length all }

let verify ~dir =
  let path = index_file dir in
  if not (Sys.file_exists path) then Error [ "missing index.json" ]
  else begin
    let problems = ref [] in
    let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
    let lines = Json.read_lines path in
    (match lines with
    | [] -> problem "empty index"
    | first :: _ ->
        (match Json.check_seal first with
        | Json.Sealed_ok -> ()
        | Json.Sealed_bad -> problem "header line: bad checksum"
        | Json.Unsealed -> problem "header line: unsealed");
        (match Json.parse_flat first with
        | Some fields when Json.int fields "corpus" = Some 1 ->
            ()
        | _ -> problem "header line: not a corpus-v1 header"));
    let seen_keys = Hashtbl.create 64 in
    List.iteri
      (fun i line ->
        if i > 0 && String.trim line <> "" then begin
          let lineno = i + 1 in
          match Json.check_seal line with
          | Json.Sealed_bad ->
              problem "line %d: bad checksum (corrupted in place)" lineno
          | Json.Unsealed -> problem "line %d: unsealed" lineno
          | Json.Sealed_ok -> (
              match Option.bind (Json.parse_flat line) entry_of_fields with
              | None -> problem "line %d: not a corpus entry" lineno
              | Some e ->
                  if Hashtbl.mem seen_keys (e.e_kind, e.e_key) then
                    problem "line %d: duplicate (%s, %s)" lineno e.e_kind
                      e.e_key
                  else Hashtbl.replace seen_keys (e.e_kind, e.e_key) ();
                  if e.e_file <> "" then begin
                    let f = Filename.concat dir e.e_file in
                    if not (Sys.file_exists f) then
                      problem "line %d: missing artifact %s" lineno e.e_file
                    else
                      let crc = file_crc f in
                      if not (String.equal crc e.e_crc) then
                        problem
                          "line %d: artifact %s content mismatch (crc %s, index says %s)"
                          lineno e.e_file crc e.e_crc
                  end)
        end)
      lines;
    match !problems with
    | [] -> Ok (Hashtbl.length seen_keys)
    | ps -> Error (List.rev ps)
  end
