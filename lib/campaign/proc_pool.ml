(* Multi-process campaign execution, and the one trial body.

   The module is deliberately split down the pipe: the [Frame] / message
   codec at the top, [execute] (the trial body every tier runs) and
   [worker_main] (runs in the child, stdin/stdout only) in the middle,
   the pool at the bottom (runs in the supervisor, owns every fd, pid
   and timer).  Nothing here touches campaign pair state — the
   supervisor half surfaces plain events, and the campaign settles
   their [tresult] records exactly as it settles in-process results and
   journal replays, which is the whole determinism story.

   Fault model: a worker can die at any byte boundary (SIGKILL, OOM via
   rlimit, CPU rlimit, exec failure), hang forever, or write garbage.
   Deaths are detected by EOF on the worker's stdout; hangs by the
   heartbeat deadline; garbage by the frame checksum.  All three funnel
   into one death path: SIGKILL (idempotent), waitpid (no zombies),
   surface the in-flight assignment for requeueing, schedule a respawn on
   the {!Supervisor} backoff curve. *)

open Rf_util
module Fuzzer = Racefuzzer.Fuzzer
module Algo = Racefuzzer.Algo
module Outcome = Rf_runtime.Outcome
module Governor = Rf_resource.Governor

(* ------------------------------------------------------------------ *)
(* Framing: sealed frames over pipes.  u32:len | payload | u64:fnv. *)

module Frame = struct
  exception Corrupt of string

  let max_len = 16 * 1024 * 1024

  let encode payload =
    let len = String.length payload in
    let b = Buffer.create (len + 12) in
    Buffer.add_int32_le b (Int32.of_int len);
    Buffer.add_string b payload;
    Buffer.add_int64_le b (Fnv.hash64 payload);
    Buffer.contents b

  let decode buf =
    let avail = Buffer.length buf in
    if avail < 4 then None
    else begin
      let s = Buffer.contents buf in
      let len = Int32.to_int (String.get_int32_le s 0) in
      if len <= 0 || len > max_len then
        raise
          (Corrupt
             (Printf.sprintf "frame length %d out of range [1, %d] at offset 0"
                len max_len));
      let total = 4 + len + 8 in
      if avail < total then None
      else begin
        let payload = String.sub s 4 len in
        let stored = String.get_int64_le s (4 + len) in
        let computed = Fnv.hash64 payload in
        if not (Int64.equal stored computed) then
          raise
            (Corrupt
               (Printf.sprintf
                  "frame checksum mismatch at offset %d: stored %Lx, computed %Lx"
                  (4 + len) stored computed));
        Buffer.clear buf;
        Buffer.add_substring buf s total (avail - total);
        Some payload
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Payload codec: flat little-endian fields behind the frame checksum.
   The reader raises {!Frame.Corrupt} on truncation — a checksummed
   payload that still misparses means a protocol bug, and we want the
   precise offset, not a silent misread. *)

let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
let w_bool b v = w_u8 b (if v then 1 else 0)
let w_int b v = Buffer.add_int64_le b (Int64.of_int v)
let w_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let w_str b s =
  Buffer.add_int32_le b (Int32.of_int (String.length s));
  Buffer.add_string b s

let w_opt wf b = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      wf b v

type reader = { r_s : string; mutable r_pos : int }

let reader s = { r_s = s; r_pos = 0 }

let need r n =
  if r.r_pos + n > String.length r.r_s then
    raise
      (Frame.Corrupt
         (Printf.sprintf "payload truncated at offset %d (need %d of %d bytes)"
            r.r_pos n
            (String.length r.r_s - r.r_pos)))

let r_u8 r =
  need r 1;
  let v = Char.code r.r_s.[r.r_pos] in
  r.r_pos <- r.r_pos + 1;
  v

let r_bool r = r_u8 r <> 0

let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.r_s r.r_pos) in
  r.r_pos <- r.r_pos + 8;
  v

let r_f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.r_s r.r_pos) in
  r.r_pos <- r.r_pos + 8;
  v

let r_str r =
  need r 4;
  let n = Int32.to_int (String.get_int32_le r.r_s r.r_pos) in
  if n < 0 || n > Frame.max_len then
    raise
      (Frame.Corrupt
         (Printf.sprintf "string length %d out of range at offset %d" n r.r_pos));
  r.r_pos <- r.r_pos + 4;
  need r n;
  let s = String.sub r.r_s r.r_pos n in
  r.r_pos <- r.r_pos + n;
  s

let r_opt rf r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (rf r)
  | t ->
      raise
        (Frame.Corrupt
           (Printf.sprintf "bad option tag %d at offset %d" t (r.r_pos - 1)))

(* ------------------------------------------------------------------ *)
(* Messages. *)

type init = {
  i_target : string;
  i_max_steps : int;
  i_postpone : int option option;
  i_detector_budget : int option;
  i_mem_budget : float option;
  i_no_degrade : bool;
  i_trial_wall : float option;
}

type assignment = {
  a_id : int;
  a_pair : Site.Pair.t;
  a_seed : int;
  a_crash : bool;
  a_stall : float;
  a_tripped : bool;
  a_die : bool;
  a_torn : bool;
  a_hang : bool;
}

type tresult =
  | T_finished of {
      t_race : bool;
      t_deadlock : bool;
      t_steps : int;
      t_switches : int;
      t_exns : int;
      t_wall : float;
      t_degraded : bool;
      t_level : string;
      t_trigger : string;
      t_evicted : int;
    }
  | T_crashed of { t_exn : string; t_backtrace : string }
  | T_exhausted of { t_reason : string; t_steps : int; t_wall : float }

let tag_init = 0x01
let tag_assign = 0x02
let tag_shutdown = 0x03
let tag_ready = 0x10
let tag_result = 0x11

let encode_init i =
  let b = Buffer.create 128 in
  w_u8 b tag_init;
  w_str b i.i_target;
  w_int b i.i_max_steps;
  (* The trial's [?postpone_timeout], an optional [int option]: absent
     (the strategy's default), Some None (no timeout) or Some (Some n).
     The campaign always sends absent; the wire keeps all three states
     for callers that build the record themselves. *)
  (match i.i_postpone with
  | None -> w_u8 b 0
  | Some None -> w_u8 b 1
  | Some (Some n) ->
      w_u8 b 2;
      w_int b n);
  w_opt w_int b i.i_detector_budget;
  w_opt w_f64 b i.i_mem_budget;
  w_bool b i.i_no_degrade;
  w_opt w_f64 b i.i_trial_wall;
  Buffer.contents b

let decode_init r =
  let i_target = r_str r in
  let i_max_steps = r_int r in
  let i_postpone =
    match r_u8 r with
    | 0 -> None
    | 1 -> Some None
    | 2 -> Some (Some (r_int r))
    | t ->
        raise
          (Frame.Corrupt (Printf.sprintf "bad postpone tag %d in init frame" t))
  in
  let i_detector_budget = r_opt r_int r in
  let i_mem_budget = r_opt r_f64 r in
  let i_no_degrade = r_bool r in
  let i_trial_wall = r_opt r_f64 r in
  { i_target; i_max_steps; i_postpone; i_detector_budget; i_mem_budget;
    i_no_degrade; i_trial_wall }

(* Sites cross the pipe as their structural interning key; the receiver
   re-interns with {!Site.make}, so site *ids* never appear on the wire
   (they are process-local). *)
let w_site b s =
  w_str b (Site.file s);
  w_int b (Site.line s);
  w_int b (Site.col s);
  w_str b (Site.label s)

let r_site r =
  let file = r_str r in
  let line = r_int r in
  let col = r_int r in
  let label = r_str r in
  Site.make ~file ~line ~col label

let encode_assign a =
  let b = Buffer.create 160 in
  w_u8 b tag_assign;
  w_int b a.a_id;
  w_site b (Site.Pair.fst a.a_pair);
  w_site b (Site.Pair.snd a.a_pair);
  w_int b a.a_seed;
  w_bool b a.a_crash;
  w_f64 b a.a_stall;
  w_bool b a.a_tripped;
  w_bool b a.a_die;
  w_bool b a.a_torn;
  w_bool b a.a_hang;
  Buffer.contents b

let decode_assign r =
  let a_id = r_int r in
  let s1 = r_site r in
  let s2 = r_site r in
  let a_seed = r_int r in
  let a_crash = r_bool r in
  let a_stall = r_f64 r in
  let a_tripped = r_bool r in
  let a_die = r_bool r in
  let a_torn = r_bool r in
  let a_hang = r_bool r in
  { a_id; a_pair = Site.Pair.make s1 s2; a_seed; a_crash; a_stall; a_tripped;
    a_die; a_torn; a_hang }

let encode_shutdown () = String.make 1 (Char.chr tag_shutdown)
let encode_ready () = String.make 1 (Char.chr tag_ready)

let encode_result ~id res =
  let b = Buffer.create 96 in
  w_u8 b tag_result;
  w_int b id;
  (match res with
  | T_finished f ->
      w_u8 b 0;
      w_bool b f.t_race;
      w_bool b f.t_deadlock;
      w_int b f.t_steps;
      w_int b f.t_switches;
      w_int b f.t_exns;
      w_f64 b f.t_wall;
      w_bool b f.t_degraded;
      w_str b f.t_level;
      w_str b f.t_trigger;
      w_int b f.t_evicted
  | T_crashed c ->
      w_u8 b 1;
      w_str b c.t_exn;
      w_str b c.t_backtrace
  | T_exhausted x ->
      w_u8 b 2;
      w_str b x.t_reason;
      w_int b x.t_steps;
      w_f64 b x.t_wall);
  Buffer.contents b

let decode_result r =
  let id = r_int r in
  let res =
    match r_u8 r with
    | 0 ->
        let t_race = r_bool r in
        let t_deadlock = r_bool r in
        let t_steps = r_int r in
        let t_switches = r_int r in
        let t_exns = r_int r in
        let t_wall = r_f64 r in
        let t_degraded = r_bool r in
        let t_level = r_str r in
        let t_trigger = r_str r in
        let t_evicted = r_int r in
        T_finished
          { t_race; t_deadlock; t_steps; t_switches; t_exns; t_wall;
            t_degraded; t_level; t_trigger; t_evicted }
    | 1 ->
        let t_exn = r_str r in
        let t_backtrace = r_str r in
        T_crashed { t_exn; t_backtrace }
    | 2 ->
        let t_reason = r_str r in
        let t_steps = r_int r in
        let t_wall = r_f64 r in
        T_exhausted { t_reason; t_steps; t_wall }
    | t -> raise (Frame.Corrupt (Printf.sprintf "bad result tag %d" t))
  in
  (id, res)

(* ------------------------------------------------------------------ *)
(* Shared fd plumbing. *)

let ignore_sigpipe () =
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> ()

let rec restart_read fd buf pos len =
  try Unix.read fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> restart_read fd buf pos len

(* Write everything or raise; EINTR restarted, EPIPE escapes to the
   caller (worker death on the supervisor side, supervisor death on the
   worker side — both handled there). *)
let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write_substring fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let reason_string = function
  | Outcome.Wall_deadline -> "wall deadline"
  | Outcome.Step_deadline -> "step deadline"
  | Outcome.Heap_watermark -> "heap watermark"
  | Outcome.Detector_budget -> "detector budget"

(* ------------------------------------------------------------------ *)
(* The trial body.  Worker processes and the campaign's in-process tier
   both run every trial through [execute], so a trial is governed,
   chaos-injected, sandboxed and recorded the same way on either side
   of the pipe — byte-identical results are the contract. *)

let execute init ~program a =
  let governor, deadline =
    Fuzzer.governance ?detector_budget:init.i_detector_budget
      ?mem_budget:init.i_mem_budget ?wall:init.i_trial_wall
      ~no_degrade:init.i_no_degrade ~tripped:a.a_tripped ()
  in
  (* Injected faults run inside the sandbox: a crash becomes a harness
     crash, and under [no_degrade] the injected trip's [Budget_stop]
     becomes a [T_exhausted] record rather than killing the caller. *)
  let inject () =
    if a.a_stall > 0.0 then Unix.sleepf a.a_stall;
    if a.a_crash then
      raise
        (Chaos.Injected_crash
           (Printf.sprintf "chaos: injected crash (%s seed %d)"
              (Site.Pair.to_string a.a_pair) a.a_seed));
    match governor with
    | Some g when a.a_tripped -> Governor.trip g Governor.Injected
    | _ -> ()
  in
  match
    Fuzzer.run_trial ?postpone_timeout:init.i_postpone ?deadline ?governor
      ~inject ~max_steps:init.i_max_steps ~program a.a_pair a.a_seed
  with
  | Fuzzer.Completed tr ->
      let o = tr.Fuzzer.t_outcome in
      let dg = tr.Fuzzer.t_degraded in
      T_finished
        {
          t_race = Algo.race_created tr.Fuzzer.t_report;
          t_deadlock = Outcome.deadlocked o;
          t_steps = o.Outcome.steps;
          t_switches = o.Outcome.switches;
          t_exns = List.length o.Outcome.exceptions;
          t_wall = o.Outcome.wall_time;
          t_degraded = dg <> None;
          t_level =
            (match dg with
            | Some s -> Governor.level_to_string s.Governor.g_level
            | None -> "full");
          t_trigger =
            (match dg with
            | Some { Governor.g_trigger = Some tg; _ } ->
                Governor.trigger_to_string tg
            | _ -> "");
          t_evicted = (match dg with Some s -> s.Governor.g_evicted | None -> 0);
        }
  | Fuzzer.Harness_crash (e, bt) ->
      T_crashed { t_exn = Printexc.to_string e; t_backtrace = bt }
  | Fuzzer.Budget_exhausted { bx_reason; bx_steps; bx_wall; _ } ->
      T_exhausted
        { t_reason = reason_string bx_reason; t_steps = bx_steps; t_wall = bx_wall }

(* ------------------------------------------------------------------ *)
(* The worker half: stdin/stdout protocol loop. *)

let worker_main ~resolve () =
  (try ignore (Sys.signal Sys.sigint Sys.Signal_ignore) with _ -> ());
  ignore_sigpipe ();
  let inb = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  (* None = EOF (supervisor went away: orderly exit, never an orphan). *)
  let rec read_frame () =
    match Frame.decode inb with
    | Some p -> Some p
    | None ->
        let n = restart_read Unix.stdin chunk 0 (Bytes.length chunk) in
        if n = 0 then None
        else begin
          Buffer.add_subbytes inb chunk 0 n;
          read_frame ()
        end
  in
  (* The supervisor closing our stdin mid-write surfaces as EPIPE: it has
     already decided we are dead, so just leave quietly. *)
  let send payload =
    try write_all Unix.stdout (Frame.encode payload)
    with Unix.Unix_error (Unix.EPIPE, _, _) -> exit 0
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline ("campaign-worker: " ^ msg);
        exit 2)
      fmt
  in
  let init =
    match (try read_frame () with Frame.Corrupt m -> fail "corrupt init frame: %s" m) with
    | None -> fail "eof before init frame"
    | Some payload ->
        let r = reader payload in
        (match r_u8 r with
        | t when t = tag_init -> decode_init r
        | t -> fail "expected init frame, got tag 0x%02x" t)
  in
  let program =
    match resolve init.i_target with
    | Some p -> p
    | None -> fail "cannot resolve target %S" init.i_target
  in
  send (encode_ready ());
  let rec loop () =
    match
      (try read_frame ()
       with Frame.Corrupt m -> fail "corrupt frame from supervisor: %s" m)
    with
    | None -> exit 0
    | Some payload ->
        let r = reader payload in
        (match r_u8 r with
        | t when t = tag_shutdown -> exit 0
        | t when t = tag_assign ->
            let a = decode_assign r in
            if a.a_die then Unix.kill (Unix.getpid ()) Sys.sigkill;
            if a.a_hang then
              while true do
                Unix.sleepf 3600.0
              done;
            let result = execute init ~program a in
            let payload = encode_result ~id:a.a_id result in
            if a.a_torn then begin
              (* Flip the last checksum byte: the supervisor must raise
                 [Frame.Corrupt], never accept the result. *)
              let torn = Bytes.of_string (Frame.encode payload) in
              let last = Bytes.length torn - 1 in
              Bytes.set torn last
                (Char.chr (Char.code (Bytes.get torn last) lxor 0xff));
              (try write_all Unix.stdout (Bytes.to_string torn)
               with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
              exit 0
            end;
            send payload;
            loop ()
        | t -> fail "unexpected frame tag 0x%02x" t)
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The supervisor half. *)

type spec = {
  sp_cmd : string array;
  sp_workers : int;
  sp_heartbeat : float;
  sp_rlimit_as_mb : int option;
  sp_rlimit_cpu_s : int option;
  sp_policy : Supervisor.policy;
  sp_target : string;
}

let default_heartbeat = 30.0

type wstate =
  | Spawning  (** init sent, Ready not yet received *)
  | Idle
  | Busy of assignment
  | Backoff of float  (** dead; respawn due at this absolute time *)
  | Gone  (** dead; respawn budget exhausted *)

type wrk = {
  w_id : int;
  mutable w_pid : int;  (** -1 when no live process *)
  mutable w_rd : Unix.file_descr;  (** worker's stdout, supervisor reads *)
  mutable w_wr : Unix.file_descr;  (** worker's stdin, supervisor writes *)
  w_buf : Buffer.t;
  mutable w_state : wstate;
  mutable w_last : float;  (** last inbound byte (heartbeat basis) *)
  mutable w_attempt : int;  (** respawns consumed *)
}

type event =
  | Ev_ready of { ev_worker : int; ev_pid : int }
  | Ev_result of { ev_worker : int; ev_id : int; ev_result : tresult }
  | Ev_died of {
      ev_worker : int;
      ev_pid : int;
      ev_in_flight : int option;
      ev_reason : string;
      ev_killed : bool;
      ev_respawning : bool;
    }
  | Ev_respawned of { ev_worker : int; ev_pid : int; ev_attempt : int; ev_backoff : float }
  | Ev_gave_up of int

type t = {
  spec : spec;
  init_frame : string;
  workers : wrk array;
  pending : event Queue.t;
      (** events observed by internal polls ({!await_ready}) and handed to
          the caller on the next {!poll} *)
}

(* Per-worker rlimits without setrlimit bindings: spawn through the
   shell's ulimit builtin, [exec]ing the real binary so the pid we hold
   is the worker itself (kill/waitpid stay valid). *)
let spawn_argv spec =
  match (spec.sp_rlimit_as_mb, spec.sp_rlimit_cpu_s) with
  | None, None -> spec.sp_cmd
  | as_mb, cpu_s ->
      let limits =
        List.filter_map Fun.id
          [
            Option.map
              (fun mb -> Printf.sprintf "ulimit -v %d 2>/dev/null" (mb * 1024))
              as_mb;
            Option.map
              (fun s -> Printf.sprintf "ulimit -t %d 2>/dev/null" s)
              cpu_s;
          ]
      in
      let script = String.concat "; " (limits @ [ "exec \"$@\"" ]) in
      Array.append [| "/bin/sh"; "-c"; script; "sh" |] spec.sp_cmd

let now () = Unix.gettimeofday ()

let spawn t w =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:false () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:false () in
  (* Supervisor ends must not leak into workers: a sibling holding our
     write end would defeat EOF-based death detection. *)
  Unix.set_close_on_exec stdin_w;
  Unix.set_close_on_exec stdout_r;
  let argv = spawn_argv t.spec in
  let pid = Unix.create_process argv.(0) argv stdin_r stdout_w Unix.stderr in
  Unix.close stdin_r;
  Unix.close stdout_w;
  w.w_pid <- pid;
  w.w_rd <- stdout_r;
  w.w_wr <- stdin_w;
  Buffer.clear w.w_buf;
  w.w_state <- Spawning;
  w.w_last <- now ();
  (* An exec failure shows up as EPIPE here or EOF at the next poll —
     either way the death path handles it; don't die with the worker. *)
  (try write_all w.w_wr t.init_frame
   with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ())

let create spec ~init =
  ignore_sigpipe ();
  let t =
    {
      spec;
      init_frame = Frame.encode (encode_init init);
      workers =
        Array.init (max 1 spec.sp_workers) (fun i ->
            {
              w_id = i;
              w_pid = -1;
              w_rd = Unix.stdin;
              w_wr = Unix.stdout;
              w_buf = Buffer.create 4096;
              w_state = Gone;
              w_last = 0.0;
              w_attempt = 0;
            });
      pending = Queue.create ();
    }
  in
  Array.iter (fun w -> spawn t w) t.workers;
  t

let live w = match w.w_state with Spawning | Idle | Busy _ -> true | _ -> false

let close_fds w =
  (try Unix.close w.w_rd with Unix.Unix_error _ -> ());
  try Unix.close w.w_wr with Unix.Unix_error _ -> ()

let reap w =
  if w.w_pid > 0 then begin
    (* SIGKILL first, unconditionally: waitpid must never block on a
       worker that closed its pipes but kept running. *)
    (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
    w.w_pid <- -1
  end

(* The single death path: every detection route (EOF, corrupt frame,
   heartbeat kill, shutdown sweep) funnels here. *)
let kill_worker t w ~killed ~reason events =
  let pid = w.w_pid in
  let in_flight = match w.w_state with Busy a -> Some a.a_id | _ -> None in
  close_fds w;
  reap w;
  let respawning = w.w_attempt < t.spec.sp_policy.Supervisor.max_respawns in
  if respawning then begin
    let delay = Supervisor.backoff_delay t.spec.sp_policy w.w_attempt in
    w.w_attempt <- w.w_attempt + 1;
    w.w_state <- Backoff (now () +. delay)
  end
  else w.w_state <- Gone;
  events :=
    Ev_died
      { ev_worker = w.w_id; ev_pid = pid; ev_in_flight = in_flight;
        ev_reason = reason; ev_killed = killed; ev_respawning = respawning }
    :: !events;
  if not respawning then events := Ev_gave_up w.w_id :: !events

let drain_frames w events =
  let rec go () =
    match Frame.decode w.w_buf with
    | None -> ()
    | Some payload ->
        let r = reader payload in
        (match r_u8 r with
        | tag when tag = tag_ready ->
            (match w.w_state with Spawning -> w.w_state <- Idle | _ -> ());
            events := Ev_ready { ev_worker = w.w_id; ev_pid = w.w_pid } :: !events;
            go ()
        | tag when tag = tag_result ->
            let id, res = decode_result r in
            (match w.w_state with Busy _ -> w.w_state <- Idle | _ -> ());
            events :=
              Ev_result { ev_worker = w.w_id; ev_id = id; ev_result = res }
              :: !events;
            go ()
        | tag ->
            raise
              (Frame.Corrupt (Printf.sprintf "unexpected frame tag 0x%02x" tag)))
  in
  go ()

let poll_once t ~timeout events =
  let t_now = now () in
  (* 1. due respawns *)
  Array.iter
    (fun w ->
      match w.w_state with
      | Backoff due when t_now >= due ->
          spawn t w;
          events :=
            Ev_respawned
              { ev_worker = w.w_id; ev_pid = w.w_pid; ev_attempt = w.w_attempt;
                ev_backoff = 0.0 }
            :: !events
      | _ -> ())
    t.workers;
  (* 2. multiplex live pipes *)
  let fds =
    Array.to_list t.workers
    |> List.filter_map (fun w -> if live w then Some w.w_rd else None)
  in
  let readable =
    if fds = [] then []
    else
      match Unix.select fds [] [] timeout with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  let chunk = Bytes.create 65536 in
  Array.iter
    (fun w ->
      if live w && List.memq w.w_rd readable then
        match restart_read w.w_rd chunk 0 (Bytes.length chunk) with
        | 0 -> kill_worker t w ~killed:false ~reason:"worker closed its pipe" events
        | exception Unix.Unix_error _ ->
            kill_worker t w ~killed:false ~reason:"worker pipe read error" events
        | n -> (
            Buffer.add_subbytes w.w_buf chunk 0 n;
            w.w_last <- now ();
            match drain_frames w events with
            | () -> ()
            | exception Frame.Corrupt msg ->
                kill_worker t w ~killed:true
                  ~reason:(Printf.sprintf "corrupt IPC frame: %s" msg)
                  events))
    t.workers;
  (* 3. heartbeat: a busy worker silent past the deadline is hung *)
  let t_now = now () in
  Array.iter
    (fun w ->
      match w.w_state with
      | Busy _ when t_now -. w.w_last > t.spec.sp_heartbeat ->
          kill_worker t w ~killed:true
            ~reason:
              (Printf.sprintf "heartbeat deadline (%.1fs) exceeded"
                 t.spec.sp_heartbeat)
            events
      | _ -> ())
    t.workers

let poll t ~timeout =
  let events = ref [] in
  poll_once t ~timeout events;
  let pending = Queue.fold (fun acc e -> e :: acc) [] t.pending in
  Queue.clear t.pending;
  List.rev_append pending (List.rev !events)

let await_ready t ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    let any_idle =
      Array.exists
        (fun w -> match w.w_state with Idle | Busy _ -> true | _ -> false)
        t.workers
    in
    if any_idle then true
    else if Array.for_all (fun w -> w.w_state = Gone) t.workers then false
    else if now () >= deadline then false
    else begin
      let events = ref [] in
      poll_once t ~timeout:(min 0.05 (max 0.0 (deadline -. now ()))) events;
      List.iter (fun e -> Queue.add e t.pending) (List.rev !events);
      go ()
    end
  in
  go ()

let idle_workers t =
  Array.to_list t.workers
  |> List.filter_map (fun w ->
         match w.w_state with Idle -> Some w.w_id | _ -> None)

let alive t = Array.fold_left (fun n w -> if live w then n + 1 else n) 0 t.workers

let gone t = Array.for_all (fun w -> w.w_state = Gone) t.workers

let assign t ~worker a =
  let w = t.workers.(worker) in
  (match w.w_state with
  | Idle -> ()
  | _ -> invalid_arg "Proc_pool.assign: worker not idle");
  w.w_state <- Busy a;
  w.w_last <- now ();
  try write_all w.w_wr (Frame.encode (encode_assign a))
  with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
    (* Worker died under us; the next poll's EOF requeues this id. *)
    ()

let shutdown t ~grace =
  (* Orderly half: Shutdown frames to workers with no assignment... *)
  Array.iter
    (fun w ->
      if live w then
        try write_all w.w_wr (Frame.encode (encode_shutdown ()))
        with Unix.Unix_error _ -> ())
    t.workers;
  (* ...whose exit closes their stdout: wait on the pipes, with the grace
     left as the select timeout, so the fleet stops as soon as its last
     worker does.  A late result or heartbeat is drained and dropped. *)
  let deadline = now () +. grace in
  let chunk = Bytes.create 4096 in
  let rec wait_voluntary () =
    let running = List.filter (fun w -> live w && w.w_pid > 0) (Array.to_list t.workers) in
    let left = deadline -. now () in
    if running <> [] && left > 0.0 then begin
      let readable =
        match Unix.select (List.map (fun w -> w.w_rd) running) [] [] left with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun w ->
          if List.memq w.w_rd readable then
            match restart_read w.w_rd chunk 0 (Bytes.length chunk) with
            | n when n > 0 -> ()
            | _ | (exception Unix.Unix_error _) ->
                close_fds w;
                reap w;
                w.w_state <- Gone)
        running;
      wait_voluntary ()
    end
  in
  if grace > 0.0 then wait_voluntary ();
  (* ...then the certain half: SIGKILL + reap everything left, including
     Backoff slots that still have a dead-but-unreaped pid (there are
     none — the death path reaps — but belt and braces). *)
  Array.iter
    (fun w ->
      if w.w_pid > 0 then begin
        close_fds w;
        reap w
      end;
      w.w_state <- Gone)
    t.workers

let kill_all t = shutdown t ~grace:0.0

let pids t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if w.w_pid > 0 then Some w.w_pid else None)
