(** Stress-serve: a server-shaped resource-stress family (the jigsaw /
    weblech shapes scaled up ~100x).

    Each round, a dispatcher enqueues one backlog token per worker and
    forks a config reloader plus a pool of per-connection worker
    threads; every worker drains a backlog token (with the weblech
    check-then-act bug), then serves [reqs] requests against a shared
    session table, an unsynchronized hit counter, the hot-swapped
    config cell, and a lock-guarded LRU cache.  Joining the whole pool
    between rounds widens every later thread's vector clock by about
    [workers] components per round (the hybrid detector draws
    happens-before from fork/join and notify/wait only), so retained
    access-history entries get more expensive round over round —
    exactly the state-growth axis an entry budget ([--detector-budget])
    bounds.

    Race inventory (independent of the size parameters):
    - session table: unsynchronized read/write from every worker — real
      races, and the [slots]-location table is the memory driver: full
      tracking keeps one history entry per (worker, site) per slot.
    - hit counter: unsynchronized read-modify-write — real, benign.
    - config cell: reloader writes vs. worker reads, no lock — real.
    - backlog: [size_unsync]/[pop_unsync] check-then-act — real and
      {e harmful}: a lost race raises [Op.No_such_element].
    - LRU cache: all accesses under the cache lock — race-free; the
      static model proves these pairs Impossible.
    - handshake farm: [hs] lock-guarded flag handshakes — hybrid false
      positives that phase 2 must refute.

    The big [stress-serve] instance is sized against a CI-sized
    address-space limit (450MB): ungoverned full tracking peaks at
    ~400MB of VA and completes under it, and [--detector-budget] bounds
    it further at an explicitly labeled degraded precision;
    [stress-serve-small] keeps the same shape (and the same pair
    inventory) at test speed. *)

open Rf_util
open Rf_runtime

let file = "serve"
let s line label = Site.make ~file ~line label

(* Shared sites: one fixed set, so pair counts do not depend on size. *)
let site_sess_r = s 10 "session(read)"
let site_sess_w = s 11 "session(write)"
let site_hits_r = s 12 "stats.hits(read)"
let site_hits_w = s 13 "stats.hits(write)"
let site_conf_w = s 14 "config(write)"
let site_conf_r = s 15 "config(read)"
let site_cache_sync = s 16 "cache.sync"
let site_cache_r = s 17 "cache.line(read)"
let site_cache_w = s 18 "cache.line(write)"
let site_q_check = s 19 "backlog.size?"
let site_q_pop_r = s 20 "backlog.pop(read)"
let site_q_pop_w = s 21 "backlog.pop(write)"

let serve ?(workers = 8) ?(rounds = 2) ?(slots = 256) ?(reqs = 32)
    ?(cache_lines = 8) ?(hs = 4) () =
  let sessions = Api.Sarray.make slots 0 in
  let cache =
    Array.init cache_lines (fun i ->
        Api.Cell.make ~name:(Printf.sprintf "lru.%d" i) (-1))
  in
  let cache_lock = Lock.create ~name:"cache" () in
  let hits = Api.Cell.global "stats.hits" 0 in
  let config = Api.Cell.global "config" 0 in
  let backlog = Common.Queue_.create () in
  let farm = Common.Farm.create ~file ~base_line:100 hs in
  for round = 0 to rounds - 1 do
    (* dispatcher: one backlog token per worker, enqueued before the
       fork so only the workers' own check-then-act drains race *)
    for w = 0 to workers - 1 do
      Common.Queue_.put backlog ((round * workers) + w)
    done;
    let reloader =
      Api.fork ~name:(Printf.sprintf "reload%d" round) (fun () ->
          Api.Cell.write ~site:site_conf_w config ((2 * round) + 1);
          (* publish exactly once: a second round's data write would
             really race with a consumer that already saw the flag,
             turning the farm's false alarms into true ones *)
          if round = 0 then Common.Farm.publish farm 0;
          Api.Cell.write ~site:site_conf_w config ((2 * round) + 2))
    in
    let worker i () =
      for j = 0 to reqs - 1 do
        (* contiguous per-worker ranges overlapping mod [slots]: each
           slot is visited by ~workers*reqs/slots distinct workers *)
        let slot = ((i * reqs) + j) mod slots in
        let v = Api.Sarray.get ~site:site_sess_r sessions slot in
        Api.Sarray.set ~site:site_sess_w sessions slot (v + 1);
        Api.Cell.update ~rsite:site_hits_r ~wsite:site_hits_w hits succ;
        ignore (Api.Cell.read ~site:site_conf_r config);
        if j land 3 = 0 then
          Api.sync ~site:site_cache_sync cache_lock (fun () ->
              let line = cache.(slot mod cache_lines) in
              if Api.Cell.read ~site:site_cache_r line <> slot then
                Api.Cell.write ~site:site_cache_w line slot)
      done;
      if i = 0 then Common.Farm.consume_rounds farm 2;
      (* weblech-style check-then-act backlog drain, last so a lost race
         cannot suppress a worker's session traffic: every worker loops
         until the size probe fails, so the pool contends over the final
         tokens and a loser's pop raises No_such_element.  (At the big
         instance's scale the default engine step cap truncates the run
         before the drain; the small variant exercises it.) *)
      let draining = ref true in
      while !draining do
        if Common.Queue_.size_unsync ~site:site_q_check backlog > 0 then
          ignore
            (Common.Queue_.pop_unsync ~rsite:site_q_pop_r ~wsite:site_q_pop_w backlog)
        else draining := false
      done
    in
    let pool =
      List.init workers (fun i ->
          Api.fork ~name:(Printf.sprintf "serve%d.%d" round i) (worker i))
    in
    Api.join reloader;
    List.iter Api.join pool
  done

(* ------------------------------------------------------------------ *)
(* Static model.

   Two representative worker threads stand in for the whole pool (the
   filter only needs may-happen-in-parallel and must-lockset facts, both
   already saturated at two threads), plus the reloader.  Cache accesses
   carry the cache lock, so their pairs are provably Impossible; every
   unsynchronized access carries an empty lockset and survives to the
   fuzzed frontier.  The farm's flag handshakes are registered exactly
   like cache4j's. *)

let static_model ~hs =
  let open Rf_static.Static in
  let b = Model.create () in
  List.iter
    (fun thread ->
      Model.access b ~site:site_sess_r ~var:"session" ~write:false ~thread ~locks:[];
      Model.access b ~site:site_sess_w ~var:"session" ~write:true ~thread ~locks:[];
      Model.access b ~site:site_hits_r ~var:"stats.hits" ~write:false ~thread ~locks:[];
      Model.access b ~site:site_hits_w ~var:"stats.hits" ~write:true ~thread ~locks:[];
      Model.access b ~site:site_conf_r ~var:"config" ~write:false ~thread ~locks:[];
      Model.access b ~site:site_cache_r ~var:"lru" ~write:false ~thread
        ~locks:[ "cache" ];
      Model.access b ~site:site_cache_w ~var:"lru" ~write:true ~thread
        ~locks:[ "cache" ];
      Model.access b ~site:site_q_check ~var:"backlog.items" ~write:false ~thread
        ~locks:[];
      Model.access b ~site:site_q_pop_r ~var:"backlog.items" ~write:false ~thread
        ~locks:[];
      Model.access b ~site:site_q_pop_w ~var:"backlog.items" ~write:true ~thread
        ~locks:[])
    [ "serve0.0"; "serve0.1" ];
  Model.access b ~site:site_conf_w ~var:"config" ~write:true ~thread:"reload0"
    ~locks:[];
  (* the queue's own synchronized put, under the queue monitor *)
  Model.access b
    ~site:(Site.make ~file:"wl_common" ~line:11 "queue.items(read)")
    ~var:"backlog.items" ~write:false ~thread:"main" ~locks:[ "queue" ];
  Model.access b
    ~site:(Site.make ~file:"wl_common" ~line:12 "queue.items(write)")
    ~var:"backlog.items" ~write:true ~thread:"main" ~locks:[ "queue" ];
  (* handshake farm: flag under the per-handshake lock, data unlocked *)
  for i = 0 to hs - 1 do
    let data = Printf.sprintf "hs%d.data" i in
    let lock = Printf.sprintf "serve.hs%d.lock" i in
    Model.access b
      ~site:(Site.make ~file ~line:(100 + (2 * i)) (Printf.sprintf "hs%d.data(write)" i))
      ~var:data ~write:true ~thread:"reload0" ~locks:[];
    Model.access b
      ~site:(Site.make ~file ~line:(100 + (2 * i) + 1) (Printf.sprintf "hs%d.data(read)" i))
      ~var:data ~write:false ~thread:"serve0.0" ~locks:[];
    Model.access b
      ~site:(Site.make ~file:"wl_common" ~line:20 "hs.flag=1")
      ~var:(Printf.sprintf "hs%d.flag" i)
      ~write:true ~thread:"reload0" ~locks:[ lock ];
    Model.access b
      ~site:(Site.make ~file:"wl_common" ~line:21 "hs.flag?")
      ~var:(Printf.sprintf "hs%d.flag" i)
      ~write:false ~thread:"serve0.0" ~locks:[ lock ]
  done;
  Model.build b

(* ------------------------------------------------------------------ *)

let workloads =
  [
    Workload.make ~name:"stress-serve"
      ~descr:
        "server stress: 64 workers x 2 rounds over a 32k-slot session table; \
         full phase-1 tracking peaks near 400MB of address space"
      ~sloc:90
      ~static:(Some (static_model ~hs:8))
      (serve ~workers:64 ~rounds:2 ~slots:32768 ~reqs:8192 ~cache_lines:64 ~hs:8);
  ]

(* Same shape at test speed: identical site set, so the potential-pair
   inventory matches the big instance. *)
let small =
  [
    Workload.make ~name:"stress-serve-small"
      ~descr:"server stress (6 workers x 2 rounds, 128 slots)" ~sloc:90
      ~expected_real:(Some 8)
      ~static:(Some (static_model ~hs:3))
      (serve ~workers:6 ~rounds:2 ~slots:128 ~reqs:32 ~cache_lines:8 ~hs:3);
  ]
