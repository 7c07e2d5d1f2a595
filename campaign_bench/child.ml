(* One CLI process, measured from outside: wall time from spawn to reap,
   CPU of the process and every child it reaped (Unix.times), and peak
   resident memory — the largest VmHWM seen across the process and its
   direct children (the --workers fleet), polled from /proc every 20 ms
   by a helper thread while the main thread blocks in waitpid, so the
   poll period never quantizes the wall time. *)

type stats = { wall : float; cpu : float; peak_rss_mb : float; status : Unix.process_status }

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* The poll runs 50 times a second beside the measured processes, so it
   only looks for the one line it needs. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s -> (
      match Gen.find s "VmHWM:" with
      | None -> 0
      | Some i -> (
          let j = i + String.length "VmHWM:" in
          let stop = Option.value ~default:(String.length s) (String.index_from_opt s j 'k') in
          match int_of_string_opt (String.trim (String.sub s j (stop - j))) with
          | Some kb -> kb
          | None -> 0))

let children pid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | None -> []
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))

let rec waitpid_noeintr pid =
  try Unix.waitpid [] pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

let run ~argv ~out =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let cpu0 = Unix.times () in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process argv.(0) argv devnull fd fd in
  Unix.close fd;
  Unix.close devnull;
  let peak = Atomic.make 0 and stop = Atomic.make false in
  let sample () =
    List.iter
      (fun p ->
        let kb = vm_hwm_kb p in
        if kb > Atomic.get peak then Atomic.set peak kb)
      (pid :: children pid)
  in
  let poller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          sample ();
          Thread.delay 0.02
        done)
      ()
  in
  let _, status = waitpid_noeintr pid in
  let wall = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  Thread.join poller;
  let cpu1 = Unix.times () in
  let cpu =
    cpu1.Unix.tms_cutime -. cpu0.Unix.tms_cutime +. (cpu1.Unix.tms_cstime -. cpu0.Unix.tms_cstime)
  in
  { wall; cpu; peak_rss_mb = float_of_int (Atomic.get peak) /. 1024.0; status }
