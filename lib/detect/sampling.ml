(** O(1)-sample hybrid race detection with a computable miss bound: the
    [Reservoir] instance of {!Access_detector} (hybrid edge policy and
    lockset requirement).

    Full hybrid detection keeps and scans up to [cap] summaries per
    location; this keeps a constant [k], chosen by deterministic
    reservoir sampling (algorithm R): after [n] accesses every past
    access is still retained with probability [k/n], so a given racing
    pair went unobserved with probability at most [1 - k/n].  That
    quantity, maximized over locations, is the run's {e miss bound} (see
    "Dynamic Race Detection with O(1) Samples", PAPERS.md).

    {b Determinism.}  Each reservoir draw is a pure function of
    [(sample seed, location hash, per-location access index)], and the
    sharded {!Offline} pipeline keeps every location's accesses in one
    shard with inline indices, so sample sets, pairs and miss bounds are
    byte-identical across inline/offline modes, shard and domain counts.

    {b Soundness.}  A reported pair is one the ample-cap hybrid detector
    also reports: if a retained sample conflicts with a fresh access, so
    does the hybrid bucket's summary that superseded it.  Sampling only
    {e misses} pairs, and the miss bound prices that.

    {b Governance.}  One charged entry per retained sample.  At Sampled
    the reservoir halves; at Lockset-only clocks freeze.  A compaction
    that evicts a whole bucket makes its misses unbounded, so the miss
    bound saturates to [1.0]. *)

type t = Access_detector.t

let create ?(k = 4) ?(seed = 0) ?governor () =
  Access_detector.create ?governor ~name:"sampling" ~lock_edges:false
    ~require_disjoint_locksets:true
    ~retention:(Access_detector.Reservoir { k = max 1 k; seed })
    ()

let feed = Access_detector.feed
let races = Access_detector.races
let pairs = Access_detector.pairs
let race_count = Access_detector.race_count
let miss_bound = Access_detector.miss_bound
