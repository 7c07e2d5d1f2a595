(** Hybrid dynamic race detection (O'Callahan & Choi [37]) — the paper's
    phase 1.

    Flags a pair of accesses [(ei, ej)] as a potential race when (paper
    §2.2):

    - different threads access the same dynamic memory location,
    - at least one access is a write,
    - the threads hold no common lock ([Li ∩ Lj = ∅]), and
    - the accesses are concurrent under the *weak* happens-before relation
      built from thread start/join and notify→wait messages only (lock
      ordering deliberately excluded).

    Hybrid detection is predictive — it reports races that could manifest
    under a different schedule — and imprecise: implicit synchronization
    (e.g. a flag handshake guarded by a lock, as with variable [x] in the
    paper's Figure 1) produces false positives.  Phase 2 (RaceFuzzer)
    separates the real ones. *)

type t = Access_detector.t

let create ?(cap = 128) ?governor () =
  Access_detector.create ?governor ~name:"hybrid" ~lock_edges:false
    ~require_disjoint_locksets:true ~retention:(Access_detector.Cap cap) ()

let feed = Access_detector.feed
let races = Access_detector.races
let pairs = Access_detector.pairs
let race_count = Access_detector.race_count
