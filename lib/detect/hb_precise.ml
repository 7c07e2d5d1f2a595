(** Precise happens-before race detection (Schonberg [44]).

    Flags two accesses as racing only when they conflict *and* are
    concurrent under the full happens-before relation, including lock
    release→acquire edges.  Precise — every report corresponds to accesses
    genuinely unordered in the observed execution — but not predictive: it
    "can only detect a race if it really happens in an execution" (paper
    §1), and it must track every shared access, giving it the large
    overhead the paper contrasts RaceFuzzer against. *)

type t = Access_detector.t

let create ?(cap = 128) ?governor () =
  Access_detector.create ?governor ~name:"happens-before" ~lock_edges:true
    ~require_disjoint_locksets:false ~cap ()

let feed = Access_detector.feed
let races = Access_detector.races
let pairs = Access_detector.pairs
let race_count = Access_detector.race_count
