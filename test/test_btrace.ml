(* The binary trace codec and the offline detection pipeline built on it.

   Three layers of guarantees:

   - the codec is lossless: encode∘decode is the identity on event
     sequences (QCheck over random traces, plus an engine-produced one);
   - malformed input is rejected with a precise [Corrupt] error — bad
     magic, version drift, truncation at any byte, bit flips under the
     checksum — never decoded into garbage;
   - record-then-detect equals inline detection: a detector replayed
     over a recording reports the same races the same detector saw live,
     byte-identical with one shard and set-identical for any sharding
     (over randomly generated RFL programs, the same generator the
     differential detector suite uses). *)

open Rf_util
open Rf_events
module D = Rf_detect.Detector

let s1 = Site.make ~file:"bt.rfl" ~line:1 "w"
let s2 = Site.make ~file:"bt.rfl" ~line:2 "r"

let mem ?(tid = 0) ?(site = s1) ?(loc = Loc.global "x") ?(access = Event.Write)
    ?(lockset = Lockset.empty) () =
  Event.Mem { tid; site; loc; access; lockset }

let trace_of evs =
  let tr = Trace.create () in
  List.iter (Trace.add tr) evs;
  tr

let sample_events =
  [
    Event.Start { tid = 0; name = "main thread" };
    mem ~site:(Site.make ~file:"a file.rfl" ~line:3 ~col:9 "x = y:z%w") ();
    mem
      ~loc:(Loc.field 4 "next ptr")
      ~access:Event.Read
      ~lockset:(Lockset.of_list [ 1; 5 ])
      ();
    mem ~loc:(Loc.elem 2 7) ~lockset:(Lockset.of_list [ 1; 5 ]) ();
    mem ~loc:(Loc.elem 2 7) ();
    Event.Acquire { tid = 1; lock = 5; site = s2 };
    Event.Snd { tid = 1; msg = 3; reason = Event.Notify };
    Event.Rcv { tid = 2; msg = 3; reason = Event.Notify };
    Event.Release { tid = 1; lock = 5; site = s2 };
    Event.Exit { tid = 0 };
  ]

let test_roundtrip_sample () =
  let tr = trace_of sample_events in
  let bt = Btrace.of_trace tr in
  Alcotest.(check int) "length" (Trace.length tr) (Btrace.length bt);
  Alcotest.(check bool) "to_trace equal" true (Trace.equal tr (Btrace.to_trace bt));
  let bt' = Btrace.of_string (Btrace.to_string bt) in
  Alcotest.(check bool) "string roundtrip equal" true
    (Trace.equal tr (Btrace.to_trace bt'));
  Alcotest.(check int) "fingerprints agree" (Trace.fingerprint tr)
    (Trace.fingerprint (Btrace.to_trace bt'))

let test_roundtrip_file () =
  let tr = trace_of sample_events in
  let path = Filename.temp_file "rf_btrace" ".bin" in
  Btrace.save path (Btrace.of_trace tr);
  let bt = Btrace.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Trace.equal tr (Btrace.to_trace bt))

let test_nasty_strings () =
  (* Strings are length-prefixed, so no byte needs escaping: a newline,
     a quote, a colon and a percent sign all survive the roundtrip. *)
  let nasty = "a b:c,\"d%e\nf" in
  let site = Site.make ~file:nasty ~line:1 ~col:1 nasty in
  let tr = trace_of [ mem ~site ~loc:(Loc.global nasty) () ] in
  let bt = Btrace.of_string (Btrace.to_string (Btrace.of_trace tr)) in
  Alcotest.(check bool) "nasty strings survive" true
    (Trace.equal tr (Btrace.to_trace bt))

let test_reload_reinterns_sites () =
  (* A reloaded recording of an unchanged program re-interns each site
     to the live site, not to a copy. *)
  let sealed = Btrace.to_string (Btrace.of_trace (trace_of [ mem () ])) in
  match Trace.to_list (Btrace.to_trace (Btrace.of_string sealed)) with
  | [ Event.Mem { site; _ } ] ->
      Alcotest.(check int) "same site id after reload" (Site.id s1) (Site.id site)
  | _ -> Alcotest.fail "expected one Mem event"

let test_writer_small_blocks () =
  (* A tiny block size forces many frames; the stream must still decode
     to the same sequence, so framing is invisible to readers. *)
  let w = Btrace.writer ~block:32 () in
  let evs = List.concat (List.init 50 (fun _ -> sample_events)) in
  List.iter (Btrace.add w) evs;
  Alcotest.(check int) "written counts events" (List.length evs) (Btrace.written w);
  let bt = Btrace.of_string (Btrace.to_string (Btrace.seal w)) in
  Alcotest.(check bool) "multi-frame decode equal" true
    (Trace.equal (trace_of evs) (Btrace.to_trace bt))

(* ------------------------------------------------------------------ *)
(* Rejection: every malformed input raises [Corrupt] with a message
   that names the defect, never a stray exception or a garbage trace. *)

let contains ~frag s =
  let n = String.length frag and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = frag || go (i + 1)) in
  n = 0 || go 0

let check_corrupt name ~mentions s =
  Alcotest.(check bool) name true
    (try
       ignore (Btrace.of_string s);
       false
     with
    | Btrace.Corrupt m -> List.for_all (fun frag -> contains ~frag m) mentions
    | _ -> false)

let sealed_sample () = Btrace.to_string (Btrace.of_trace (trace_of sample_events))

let test_rejects_bad_magic () =
  check_corrupt "empty input" ~mentions:[ "truncated header" ] "";
  let s = Bytes.of_string (sealed_sample ()) in
  Bytes.set s 0 'X';
  check_corrupt "bad magic" ~mentions:[ "bad magic" ] (Bytes.to_string s)

let test_rejects_version_drift () =
  (* A future-version recording must be refused up front, not decoded on
     the hope the format didn't change. *)
  let s = Bytes.of_string (sealed_sample ()) in
  Bytes.set_uint16_le s 4 (Btrace.version + 1);
  check_corrupt "version drift"
    ~mentions:
      [ "unsupported version"; string_of_int (Btrace.version + 1) ]
    (Bytes.to_string s)

let test_rejects_truncation () =
  let s = sealed_sample () in
  (* mid-header, mid-frame-header, mid-payload, mid-checksum: every
     prefix must be rejected, and the error must carry a byte offset *)
  List.iter
    (fun k ->
      check_corrupt
        (Printf.sprintf "truncated at %d" k)
        ~mentions:[ "truncated" ]
        (String.sub s 0 k))
    [ 3; 6; 11; String.length s - 3; String.length s - 9 ]

let test_rejects_bit_flip () =
  (* Any payload corruption lands on the checksum before the record
     decoder can be confused by it. *)
  let s = Bytes.of_string (sealed_sample ()) in
  let payload_byte = 6 + 4 + 2 in
  Bytes.set s payload_byte
    (Char.chr (Char.code (Bytes.get s payload_byte) lxor 0x40));
  check_corrupt "bit flip" ~mentions:[ "checksum mismatch" ] (Bytes.to_string s)

let test_corrupt_pinpoints_offset () =
  (* the message must contain the offending byte offset as a number *)
  let s = sealed_sample () in
  let msg =
    try
      ignore (Btrace.of_string (String.sub s 0 (String.length s - 3)));
      ""
    with Btrace.Corrupt m -> m
  in
  Alcotest.(check bool) "offset in message" true
    (contains ~frag:"at byte" msg)

(* ------------------------------------------------------------------ *)
(* QCheck: random event sequences roundtrip through the codec. *)

let gen_event =
  QCheck.Gen.(
    let site =
      map (fun n -> Site.make ~file:"bt-g.rfl" ~line:(n mod 40) "st") small_nat
    in
    let loc =
      oneof
        [
          map (fun n -> Loc.global (Printf.sprintf "g%d" (n mod 5))) small_nat;
          map (fun n -> Loc.field (n mod 6) "f") small_nat;
          map2 (fun a i -> Loc.elem (a mod 4) (i mod 8)) small_nat small_nat;
        ]
    in
    oneof
      [
        (let* tid = small_nat and* st = site and* l = loc and* w = bool in
         let* locks = small_list (map (fun n -> n mod 9) small_nat) in
         return
           (Event.Mem
              {
                tid;
                site = st;
                loc = l;
                access = (if w then Event.Write else Event.Read);
                lockset = Lockset.of_list locks;
              }));
        (let* tid = small_nat and* lock = small_nat and* st = site in
         return (Event.Acquire { tid; lock; site = st }));
        (let* tid = small_nat and* lock = small_nat and* st = site in
         return (Event.Release { tid; lock; site = st }));
        (let* tid = small_nat and* msg = small_nat in
         return (Event.Snd { tid; msg; reason = Event.Fork }));
        (let* tid = small_nat and* msg = small_nat in
         return (Event.Rcv { tid; msg; reason = Event.Join }));
        map (fun tid -> Event.Start { tid; name = "t" }) small_nat;
        map (fun tid -> Event.Exit { tid }) small_nat;
      ])

let prop_roundtrip_random =
  QCheck.Test.make ~name:"random event sequences roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(small_list gen_event))
    (fun evs ->
      let tr = trace_of evs in
      let bt = Btrace.of_string (Btrace.to_string (Btrace.of_trace tr)) in
      Trace.equal tr (Btrace.to_trace bt))

let prop_truncation_always_rejected =
  (* chop a valid recording at every possible byte: no prefix may decode *)
  QCheck.Test.make ~name:"every proper prefix is rejected" ~count:40
    (QCheck.make QCheck.Gen.(small_list gen_event))
    (fun evs ->
      let s = Btrace.to_string (Btrace.of_trace (trace_of evs)) in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        (try
           ignore (Btrace.of_string (String.sub s 0 k));
           ok := false
         with
        | Btrace.Corrupt _ -> ()
        | _ -> ok := false)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Record-then-detect equivalence: the offline pipeline reports exactly
   the races the inline detector reported, on engine executions of
   randomly generated RFL programs. *)

let run_recording ?(seed = 0) ~listeners main =
  let w = Btrace.writer () in
  ignore
    (Rf_runtime.Engine.run
       ~config:
         { Rf_runtime.Engine.default_config with seed; max_steps = 100_000 }
       ~listeners ~btrace:w
       ~strategy:(Rf_runtime.Strategy.random ())
       main);
  Btrace.seal w

let main_of prog = Rf_lang.Lang.program ~print:ignore prog

let prop_offline_equals_inline =
  QCheck.Test.make ~name:"offline hybrid = inline hybrid (1 shard, byte-identical)"
    ~count:50
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let inline_d = D.hybrid ~cap:4096 () in
      let bt = run_recording ~seed ~listeners:[ D.feed inline_d ] (main_of prog) in
      let offline =
        Rf_detect.Offline.detect ~make:(fun () -> D.hybrid ~cap:4096 ()) [ bt ]
      in
      (* one shard replays the inline feed verbatim: same races, same order *)
      List.map Rf_detect.Race.to_string offline
      = List.map Rf_detect.Race.to_string (D.races inline_d))

let prop_sharded_offline_pair_set =
  QCheck.Test.make ~name:"sharded offline pair set = inline pair set" ~count:50
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let inline_d = D.hybrid ~cap:4096 () in
      let bt = run_recording ~seed ~listeners:[ D.feed inline_d ] (main_of prog) in
      List.for_all
        (fun shards ->
          let offline =
            Rf_detect.Offline.detect ~shards
              ~make:(fun () -> D.hybrid ~cap:4096 ())
              [ bt ]
          in
          Site.Pair.Set.equal
            (Rf_detect.Race.distinct_pairs offline)
            (D.pairs inline_d))
        [ 2; 3; 7 ])

let prop_recording_is_the_trace =
  (* the recording the engine emits is the same event sequence a trace
     listener observes — the recorder is not a lossy projection *)
  QCheck.Test.make ~name:"engine recording equals listener trace" ~count:50
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let tr = Trace.create () in
      let bt = run_recording ~seed ~listeners:[ Trace.add tr ] (main_of prog) in
      Trace.equal tr (Btrace.to_trace bt))

let () =
  Alcotest.run "rf_btrace"
    [
      ( "codec",
        [
          Alcotest.test_case "sample roundtrip" `Quick test_roundtrip_sample;
          Alcotest.test_case "file roundtrip" `Quick test_roundtrip_file;
          Alcotest.test_case "small blocks" `Quick test_writer_small_blocks;
          Alcotest.test_case "nasty site strings" `Quick test_nasty_strings;
          Alcotest.test_case "reload re-interns sites" `Quick
            test_reload_reinterns_sites;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "bad magic" `Quick test_rejects_bad_magic;
          Alcotest.test_case "version drift" `Quick test_rejects_version_drift;
          Alcotest.test_case "truncation" `Quick test_rejects_truncation;
          Alcotest.test_case "bit flip" `Quick test_rejects_bit_flip;
          Alcotest.test_case "offset in errors" `Quick test_corrupt_pinpoints_offset;
          QCheck_alcotest.to_alcotest prop_truncation_always_rejected;
        ] );
      ( "offline",
        [
          QCheck_alcotest.to_alcotest prop_offline_equals_inline;
          QCheck_alcotest.to_alcotest prop_sharded_offline_pair_set;
          QCheck_alcotest.to_alcotest prop_recording_is_the_trace;
        ] );
    ]
