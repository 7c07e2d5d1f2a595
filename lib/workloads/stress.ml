(** Adversarial resource-stress workloads: programs built to blow up
    detector state, not to model any benchmark.

    Each one attacks a different axis of analysis-state growth, so
    together they exercise every rung of the degradation ladder
    ({!Rf_resource.Governor}):

    - {b stress-threads}: a storm of short-lived threads inflates the
      vector-clock tables (one clock per thread, each O(threads) wide).
    - {b stress-locks}: two threads churning through thousands of locks
      inflate the happens-before message table (one entry per release).
    - {b stress-hotloc}: many threads hammering one location from
      distinct sites grow a single access-history bucket to its cap,
      exercising the Sampled rung's hash-picked victims.
    - {b stress-sweep}: two threads sweep a 1.2M-element shared array
      (one access-history bucket per element, ~25 words each), then the
      main thread forks and joins a chain of 10k empty threads.  Each
      join widens the main thread's clock by one component, so chain
      thread [i] holds a clock of ~2i words and leaves a fork and a
      death message of ~i words each, none ever reclaimed: ~2·chain²
      words for only 3·chain engine steps.  {!sweep_estimate_mb} adds
      both up — about 1.7GB ungoverned, past the 768MB address-space
      ceiling of the CI memory gate on its own, runtime reservation
      aside.  Under an entry budget the sweep drives the governor to the
      lockset-only rung, which stops clock feeding, so the chain adds no
      detector state and the run completes degraded with ~5MB of it.

    All four are deterministic programs of the usual kind — state growth
    is a pure function of the schedule, so governed runs fingerprint
    identically on any domain count. *)

open Rf_util
open Rf_runtime

let file = "stress"
let s line label = Site.make ~file ~line label

(* ------------------------------------------------------------------ *)
(* Thread storm: clock-table pressure.                                 *)

let thread_storm ?(threads = 48) ?(writes = 4) () =
  let mine =
    Array.init threads (fun i ->
        Api.Cell.make ~name:(Printf.sprintf "storm.%d" i) 0)
  in
  let shared = Api.Cell.global "storm.shared" 0 in
  let worker i () =
    for w = 1 to writes do
      Api.Cell.write ~site:(s 10 "storm.mine(write)") mine.(i) w
    done;
    (* unsynchronized rmw: every pair of storm threads conflicts here *)
    Api.Cell.update ~rsite:(s 11 "storm.shared(read)")
      ~wsite:(s 12 "storm.shared(write)") shared succ
  in
  let hs =
    List.init threads (fun i ->
        Api.fork ~name:(Printf.sprintf "storm%d" i) (worker i))
  in
  List.iter Api.join hs

(* ------------------------------------------------------------------ *)
(* Lock churn: happens-before message-table pressure.                  *)

let lock_churn ?(locks = 2000) ?(rounds = 2) () =
  let ls =
    Array.init locks (fun i -> Lock.create ~name:(Printf.sprintf "churn.%d" i) ())
  in
  let x = Api.Cell.global "churn.x" 0 in
  let worker rsite wsite () =
    for _ = 1 to rounds do
      Array.iter
        (fun l ->
          Api.sync ~site:(s 20 "churn.sync") l (fun () ->
              Api.Cell.update ~rsite ~wsite x succ))
        ls
    done
  in
  let h1 =
    Api.fork ~name:"churn-a"
      (worker (s 21 "churn.x(read,a)") (s 22 "churn.x(write,a)"))
  in
  let h2 =
    Api.fork ~name:"churn-b"
      (worker (s 23 "churn.x(read,b)") (s 24 "churn.x(write,b)"))
  in
  Api.join h1;
  Api.join h2

(* ------------------------------------------------------------------ *)
(* Hot location: single-bucket access-history pressure.                *)

let hot_location ?(threads = 16) ?(rounds = 32) () =
  let hot = Api.Cell.global "hot" 0 in
  let worker i () =
    (* distinct site per thread: every access is history-worthy, none
       supersedes another, so the bucket grows to whatever cap the
       current ladder rung allows *)
    let site = Site.make ~file ~line:(100 + i) (Printf.sprintf "hot.t%d" i) in
    for r = 1 to rounds do
      Api.Cell.write ~site hot ((i * rounds) + r)
    done
  in
  let hs =
    List.init threads (fun i ->
        Api.fork ~name:(Printf.sprintf "hot%d" i) (worker i))
  in
  List.iter Api.join hs

(* ------------------------------------------------------------------ *)
(* Address sweep: one-location-per-entry state explosion.              *)

let address_sweep ?(locs = 1_200_000) ?(overlap = 256) () =
  let arr = Api.Sarray.make locs 0 in
  let half = locs / 2 in
  let overlap = min overlap half in
  (* Private ranges first, the shared overlap window last: both threads
     reach the racy region at about the same time, so even a governed
     run whose compaction keeps only the newest buckets still has one
     side's accesses in history when the other side arrives. *)
  let sweep site lo hi () =
    for i = lo to hi - 1 do
      Api.Sarray.set ~site arr i i
    done;
    for i = half to half + overlap - 1 do
      Api.Sarray.set ~site arr i (i + 1)
    done
  in
  let h1 = Api.fork ~name:"sweep-lo" (sweep (s 200 "sweep(lo)") 0 half) in
  let h2 =
    Api.fork ~name:"sweep-hi" (sweep (s 201 "sweep(hi)") (half + overlap) locs)
  in
  Api.join h1;
  Api.join h2

(* ------------------------------------------------------------------ *)
(* Fork chain: clock state quadratic in the thread count.              *)

(* Each join widens the forking thread's clock by one component, so the
   [i]-th thread's clock and its fork and death messages are ~i words
   each, and the hybrid detector keeps all of them. *)
let fork_chain ?(threads = 10_000) () =
  for _ = 1 to threads do
    Api.join (Api.fork ~name:"chain" ignore)
  done

(* Ungoverned hybrid detector state of an address sweep over [locs]
   locations followed by a [chain]-thread fork chain, in MB: ~25 words
   per history bucket (29.9M live words measured at 1.2M locations) plus
   ~2·chain² words of chain clocks and messages (32.2M measured at a 4k
   chain). *)
let sweep_estimate_mb ~locs ~chain =
  ((25 * locs) + (2 * chain * chain)) * 8 / (1024 * 1024)

(* ------------------------------------------------------------------ *)
(* Static models.

   Coarse but sound: the storm's per-thread [mine] cells share one site,
   so the model merges them into one over-approximated shared variable
   (Likely, never fuzzed into a confirmation — an accepted imprecision);
   the churn accesses hold a different lock on every occurrence, so the
   must-intersection is empty and the real cross-lock race survives.  The
   reflexive single-thread and read-read pairs are what the filter can
   actually prove Impossible here. *)

let storm_model ~threads =
  let open Rf_static.Static in
  let b = Model.create () in
  for i = 0 to threads - 1 do
    let thread = Printf.sprintf "storm%d" i in
    Model.access b ~site:(s 10 "storm.mine(write)") ~var:"storm.mine"
      ~write:true ~thread ~locks:[];
    Model.access b ~site:(s 11 "storm.shared(read)") ~var:"storm.shared"
      ~write:false ~thread ~locks:[];
    Model.access b ~site:(s 12 "storm.shared(write)") ~var:"storm.shared"
      ~write:true ~thread ~locks:[]
  done;
  Model.build b

let churn_model =
  let open Rf_static.Static in
  let b = Model.create () in
  Model.access b ~site:(s 21 "churn.x(read,a)") ~var:"churn.x" ~write:false
    ~thread:"churn-a" ~locks:[];
  Model.access b ~site:(s 22 "churn.x(write,a)") ~var:"churn.x" ~write:true
    ~thread:"churn-a" ~locks:[];
  Model.access b ~site:(s 23 "churn.x(read,b)") ~var:"churn.x" ~write:false
    ~thread:"churn-b" ~locks:[];
  Model.access b ~site:(s 24 "churn.x(write,b)") ~var:"churn.x" ~write:true
    ~thread:"churn-b" ~locks:[];
  Model.build b

let hotloc_model ~threads =
  let open Rf_static.Static in
  let b = Model.create () in
  for i = 0 to threads - 1 do
    Model.access b
      ~site:(Site.make ~file ~line:(100 + i) (Printf.sprintf "hot.t%d" i))
      ~var:"hot" ~write:true
      ~thread:(Printf.sprintf "hot%d" i)
      ~locks:[]
  done;
  Model.build b

let sweep_model =
  let open Rf_static.Static in
  let b = Model.create () in
  Model.access b ~site:(s 200 "sweep(lo)") ~var:"sweep.arr" ~write:true
    ~thread:"sweep-lo" ~locks:[];
  Model.access b ~site:(s 201 "sweep(hi)") ~var:"sweep.arr" ~write:true
    ~thread:"sweep-hi" ~locks:[];
  Model.build b

(* ------------------------------------------------------------------ *)

let workloads =
  [
    Workload.make ~name:"stress-threads"
      ~descr:"thread storm: clock-table pressure (48 threads)" ~sloc:30
      ~static:(Some (storm_model ~threads:48))
      (thread_storm ?threads:None ?writes:None);
    Workload.make ~name:"stress-locks"
      ~descr:"lock churn: happens-before message-table pressure (2000 locks)"
      ~sloc:30 ~static:(Some churn_model)
      (lock_churn ?locks:None ?rounds:None);
    Workload.make ~name:"stress-hotloc"
      ~descr:"hot location: single-bucket history pressure (16 writers)"
      ~sloc:25
      ~static:(Some (hotloc_model ~threads:16))
      (hot_location ?threads:None ?rounds:None);
    Workload.make ~name:"stress-sweep"
      ~descr:
        (Printf.sprintf
           "address sweep + fork chain (1.2M locations, 10k threads): ~%dMB \
            of detector state ungoverned, past a 768MB ceiling"
           (sweep_estimate_mb ~locs:1_200_000 ~chain:10_000))
      ~sloc:25 ~static:(Some sweep_model)
      (fun () ->
        address_sweep ?locs:None ?overlap:None ();
        fork_chain ?threads:None ());
  ]

(* Small variants for tests: same shapes, budgets of a few hundred still
   trip, but a whole trial finishes in milliseconds. *)
let small =
  [
    Workload.make ~name:"stress-threads-small" ~descr:"thread storm (12 threads)"
      ~sloc:30
      ~static:(Some (storm_model ~threads:12))
      (thread_storm ~threads:12 ~writes:2);
    Workload.make ~name:"stress-locks-small" ~descr:"lock churn (64 locks)"
      ~sloc:30 ~static:(Some churn_model)
      (lock_churn ~locks:64 ~rounds:1);
    Workload.make ~name:"stress-hotloc-small" ~descr:"hot location (8 writers)"
      ~sloc:25
      ~static:(Some (hotloc_model ~threads:8))
      (hot_location ~threads:8 ~rounds:8);
    Workload.make ~name:"stress-sweep-small" ~descr:"address sweep (4096 locations)"
      ~sloc:25 ~static:(Some sweep_model)
      (address_sweep ~locs:4096 ~overlap:64);
  ]
