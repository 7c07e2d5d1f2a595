(** Generic access-history race detector: the one history core behind
    {!Hybrid} and {!Hb_precise}.

    Per dynamic memory location it keeps a bounded history of access
    summaries (thread, site, access kind, lockset, epoch) and flags a race
    when a new access *conflicts* with a stored one: another thread, at
    least one write, disjoint locksets when the instance requires them,
    and unordered under the instance's happens-before edge policy.  The
    stored access is always earlier in the stream, so "concurrent" is
    exactly "not {!Hbclock.hb_before} the fresh access's thread" — one
    array read on the stored epoch (see {!Hbclock} for the argument).

    Each location keeps its newest [cap] summaries; an entry by the same
    thread, site, access kind and lockset is superseded by the new
    access, whose races involve the same statement pair.  [truncations]
    counts dropped summaries.

    {2 Resource governance}

    With a {!Rf_resource.Governor} every retained summary is one charged
    entry, and the detector joins the degradation ladder:
    - {b Full}: identical to the ungoverned detector.
    - {b Sampled}: a cap shrinks to min 8 and replacement switches from
      drop-oldest to a victim picked by an FNV-1a hash of the access
      counter, so survivors spread over the bucket's lifetime.
    - {b Lockset-only}: no clock feeding (new summaries carry epoch 0)
      and the predicate falls back to Eraser-style lockset discipline —
      an over-approximation, the right direction for phase 1, whose
      candidates phase 2 confirms or refutes.

    Each trip also compacts: whole buckets go, oldest last-touch first
    (ties by creation order), until the charged entries fit in half the
    budget.  Last-touch epochs are the running access count, so
    everything the detector reports is a pure function of the event
    stream, independent of heap layout, GC timing or domain count. *)

open Rf_util
open Rf_events
open Rf_resource

(* The access being fed.  [meta] packs what the scan tests first:
   [tid lsl 2], bit 1 = non-empty lockset, bit 0 = write. *)
type incoming = {
  tid : int;
  site : Site.t;
  sid : int;  (* [Site.id site] *)
  lockset : Lockset.t;
  meta : int;
  clock : int;  (* epoch; 0 when recorded with clocks frozen *)
}

let meta_of ~tid ~access ~lockset =
  (tid lsl 2)
  lor (if Lockset.is_empty lockset then 0 else 2)
  lor match access with Event.Write -> 1 | Event.Read -> 0

let access_of_meta m = if m land 1 = 1 then Event.Write else Event.Read

(* Summaries live in slots [lo .. top-1], structure-of-arrays so a scan
   reads one contiguous int array: [hot] holds [meta; clock; site id] per
   slot, [sites] and [locksets] are only read to report a race or to test
   two non-empty locksets.  New summaries are appended at the top, so the
   top is the newest end.  A summary is dropped by marking its slot dead
   (meta [-1]) and the live ones slide down when the arrays fill, so
   supersession and drop-oldest cost O(1) amortized. *)
type bucket = {
  mutable hot : int array;
  mutable sites : Site.t array;
  mutable locksets : Lockset.t array;
  mutable lo : int;
  mutable top : int;
  mutable live : int;
  mutable b_epoch : int;  (* last-touch: value of [mem_events] *)
  b_id : int;  (* creation index; compaction tie-break *)
}

(* Reported pairs as an open-addressing set of pair ids ({!pair_id}):
   linear probing, [-1] marks a free slot, at most half full.  The dedup
   test runs for every conflicting summary a scan meets, so it is a
   multiply, a shift and (almost always) one probe. *)
type id_set = { mutable slots : int array; mutable count : int }

let rec probe slots id i =
  let v = slots.(i) in
  if v = id || v < 0 then i else probe slots id ((i + 1) land (Array.length slots - 1))

let slot slots id =
  probe slots id (((id * 0x2545F4914F6CDD1D) lsr 24) land (Array.length slots - 1))

let id_mem s id = s.slots.(slot s.slots id) = id

let id_add s id =
  if 2 * (s.count + 1) > Array.length s.slots then begin
    let old = s.slots in
    s.slots <- Array.make (2 * Array.length old) (-1);
    Array.iter (fun v -> if v >= 0 then s.slots.(slot s.slots v) <- v) old
  end;
  s.slots.(slot s.slots id) <- id;
  s.count <- s.count + 1

type t = {
  dname : string;
  clocks : Hbclock.t;
  governor : Governor.t option;
  require_disjoint_locksets : bool;
  cap : int;
  history : bucket Loc.Tbl.t;
  mutable races : Race.t list;  (* newest first *)
  mutable reported : Site.Pair.Set.t;
  reported_ids : id_set;  (* [reported], as pair ids *)
  on_pair : Site.Pair.t -> unit;  (* told of each pair as it is first reported *)
  mutable truncations : int;
  mutable mem_events : int;
  mutable next_bucket_id : int;
  mutable entries_charged : int;
}

(* FNV-1a over the 8 little-endian bytes of [n]: a cheap, seedless,
   platform-independent hash used to pick Sampled-rung victims. *)
let fnv1a64 n = Fnv.(mask63 (fold_int63 basis63 n))

let charge t n =
  t.entries_charged <- t.entries_charged + n;
  match t.governor with Some g -> Governor.charge g n | None -> ()

let credit t n =
  t.entries_charged <- max 0 (t.entries_charged - n);
  match t.governor with Some g -> Governor.credit g n | None -> ()

let evict t n =
  t.entries_charged <- max 0 (t.entries_charged - n);
  match t.governor with Some g -> Governor.evict g n | None -> ()

let level t =
  match t.governor with Some g -> Governor.level g | None -> Governor.Full

(* Effective history bound at each rung. *)
let bound_at t = function
  | Governor.Full -> t.cap
  | Governor.Sampled -> min t.cap 8
  | Governor.Lockset_only -> 2

(* Evict whole buckets, oldest last-touch first, until the charged
   entries fit in half the budget.  Collect-and-sort: never iterate a
   hashtable in raw order when the result affects what gets reported. *)
let compact t =
  match t.governor with
  | None -> ()
  | Some g ->
      (* Entry budget: shed to half the budget.  Heap-watermark-only
         governor (no entry budget): halve whatever is charged, so a
         physical trip actually releases memory too. *)
      let target =
        match Governor.budget g with
        | Some budget -> max 1 (budget / 2)
        | None -> max 1 (t.entries_charged / 2)
      in
      if t.entries_charged > target then begin
        let buckets =
          Loc.Tbl.fold (fun loc b acc -> (loc, b) :: acc) t.history []
        in
        let buckets =
          List.sort
            (fun (_, a) (_, b) ->
              match compare a.b_epoch b.b_epoch with
              | 0 -> compare a.b_id b.b_id
              | c -> c)
            buckets
        in
        List.iter
          (fun (loc, b) ->
            if t.entries_charged > target then begin
              Loc.Tbl.remove t.history loc;
              evict t b.live;
              t.truncations <- t.truncations + b.live
            end)
          buckets
      end

let create ?governor ?(on_pair = ignore) ~name ~lock_edges
    ~require_disjoint_locksets ~cap () =
  let t =
    {
      dname = name;
      clocks = Hbclock.create ?governor ~lock_edges ();
      governor;
      require_disjoint_locksets;
      cap;
      history = Loc.Tbl.create 256;
      races = [];
      reported = Site.Pair.Set.empty;
      reported_ids = { slots = Array.make 64 (-1); count = 0 };
      on_pair;
      truncations = 0;
      mem_events = 0;
      next_bucket_id = 0;
      entries_charged = 0;
    }
  in
  (match governor with
  | Some g -> Governor.subscribe g (fun _level -> compact t)
  | None -> ());
  t

let name t = t.dname

(* An unordered site pair as one int: the dedup test runs for every
   conflicting summary a scan meets, so it must not allocate. *)
let pair_id a b =
  if a <= b then (a lsl 31) lor b else (b lsl 31) lor a

let report t ~loc b i f =
  let id = pair_id b.hot.((3 * i) + 2) f.sid in
  if not (id_mem t.reported_ids id) then begin
    id_add t.reported_ids id;
    let pair = Site.Pair.make b.sites.(i) f.site in
    let m = b.hot.(3 * i) in
    t.reported <- Site.Pair.Set.add pair t.reported;
    t.races <-
      Race.make ~pair ~loc
        ~tids:(m lsr 2, f.tid)
        ~accesses:(access_of_meta m, access_of_meta f.meta)
      :: t.races;
    t.on_pair pair
  end

(* Locksets disjoint; free when either is empty. *)
let disjoint b i f =
  b.hot.(3 * i) land f.meta land 2 = 0 || Lockset.disjoint b.locksets.(i) f.lockset

let conflicting t lv b i f =
  let m = b.hot.(3 * i) in
  m lsr 2 <> f.tid
  && (m lor f.meta) land 1 = 1
  &&
  match lv with
  | Governor.Lockset_only ->
      (* Eraser-style fallback: clocks are frozen, so the only evidence
         left is lock discipline. *)
      disjoint b i f
  | Governor.Full | Governor.Sampled ->
      (not
         (Hbclock.hb_before t.clocks ~tid:(m lsr 2)
            ~clock:b.hot.((3 * i) + 1)
            ~now_tid:f.tid))
      && ((not t.require_disjoint_locksets) || disjoint b i f)

(* Same thread, site, access kind and lockset. *)
let supersedes b i f =
  b.hot.(3 * i) = f.meta
  && b.hot.((3 * i) + 2) = f.sid
  && Lockset.equal b.locksets.(i) f.lockset

let store b i f =
  b.hot.(3 * i) <- f.meta;
  b.hot.((3 * i) + 1) <- f.clock;
  b.hot.((3 * i) + 2) <- f.sid;
  b.sites.(i) <- f.site;
  b.locksets.(i) <- f.lockset

let move b ~src ~dst =
  for k = 0 to 2 do
    b.hot.((3 * dst) + k) <- b.hot.((3 * src) + k)
  done;
  b.sites.(dst) <- b.sites.(src);
  b.locksets.(dst) <- b.locksets.(src)

let dead b i = b.hot.(3 * i) < 0

let kill b i =
  b.hot.(3 * i) <- -1;
  b.live <- b.live - 1

(* Slide the live summaries down to slot 0 when at least half the slots
   are dead, else double the arrays; either way amortized O(1). *)
let make_room b f =
  let n = Array.length b.sites in
  if 2 * b.live <= n && n > 0 then begin
    let j = ref 0 in
    for i = b.lo to b.top - 1 do
      if not (dead b i) then begin
        move b ~src:i ~dst:!j;
        incr j
      end
    done;
    b.lo <- 0;
    b.top <- !j
  end
  else begin
    let extra = max 1 n in
    b.hot <- Array.append b.hot (Array.make (3 * extra) 0);
    b.sites <- Array.append b.sites (Array.make extra f.site);
    b.locksets <- Array.append b.locksets (Array.make extra f.lockset)
  end

let push b f =
  if b.top = Array.length b.sites then make_room b f;
  store b b.top f;
  b.top <- b.top + 1;
  b.live <- b.live + 1

let kill_oldest b =
  while dead b b.lo do
    b.lo <- b.lo + 1
  done;
  kill b b.lo;
  b.lo <- b.lo + 1

(* The slot of the [v]-th newest live summary (0 = newest). *)
let rec nth_newest b i v =
  if dead b i then nth_newest b (i - 1) v
  else if v = 0 then i
  else nth_newest b (i - 1) (v - 1)

(* Retention.  Every accounting call precedes the charge for the new
   summary and the bucket is only rewritten after it: a trip inside
   [charge] may compact this very bucket away, and then it must be shed
   at its pre-access size. *)
let retain t lv b ~cap fresh ~superseded ~superseded_at =
  if superseded > 0 then credit t superseded;
  let live = b.live - superseded in
  (* A degradation step can shrink [cap] under a bucket filled at a
     higher rung; trim the excess oldest entries before the insert. *)
  let trim = max 0 (live - cap) in
  if trim > 0 then begin
    t.truncations <- t.truncations + trim;
    evict t trim
  end;
  let full = live - trim >= cap in
  if full then begin
    t.truncations <- t.truncations + 1;
    evict t 1
  end;
  charge t 1;
  if superseded = 1 then kill b superseded_at
  else if superseded > 1 then
    for i = b.lo to b.top - 1 do
      if (not (dead b i)) && supersedes b i fresh then kill b i
    done;
  for _ = 1 to trim do
    kill_oldest b
  done;
  if not full then push b fresh
  else
    match lv with
    | Governor.Full ->
        kill_oldest b;
        push b fresh
    | Governor.Sampled | Governor.Lockset_only ->
        (* Deterministic reservoir: a hash of the access counter picks
           which retained summary (counted newest first) the newcomer
           displaces, so survivors are spread over the bucket's lifetime
           instead of always being the most recent [cap]. *)
        let victim = fnv1a64 t.mem_events mod cap in
        store b (nth_newest b (b.top - 1) victim) fresh

let feed t ev =
  let lv = level t in
  (* At the bottom rung the clock machinery is frozen: no feeding, and
     new summaries carry epoch 0, which the predicate never consults. *)
  let clock =
    match lv with
    | Governor.Lockset_only -> 0
    | Governor.Full | Governor.Sampled -> Hbclock.feed t.clocks ev
  in
  match ev with
  | Event.Mem { tid; site; loc; access; lockset } ->
      t.mem_events <- t.mem_events + 1;
      let fresh =
        {
          tid;
          site;
          sid = Site.id site;
          lockset;
          meta = meta_of ~tid ~access ~lockset;
          clock;
        }
      in
      let b =
        match Loc.Tbl.find_opt t.history loc with
        | Some b -> b
        | None ->
            let b =
              {
                hot = [||];
                sites = [||];
                locksets = [||];
                lo = 0;
                top = 0;
                live = 0;
                b_epoch = t.mem_events;
                b_id = t.next_bucket_id;
              }
            in
            t.next_bucket_id <- t.next_bucket_id + 1;
            Loc.Tbl.add t.history loc b;
            b
      in
      b.b_epoch <- t.mem_events;
      (* Scan newest first, counting summaries the access supersedes. *)
      let superseded = ref 0 and superseded_at = ref 0 in
      for i = b.top - 1 downto b.lo do
        if not (dead b i) then begin
          if conflicting t lv b i fresh then report t ~loc b i fresh;
          if supersedes b i fresh then begin
            incr superseded;
            superseded_at := i
          end
        end
      done;
      retain t lv b ~cap:(bound_at t lv) fresh ~superseded:!superseded
        ~superseded_at:!superseded_at
  | _ -> ()

let races t = List.rev t.races
let pairs t = t.reported
let race_count t = Site.Pair.Set.cardinal t.reported
let truncations t = t.truncations
let mem_events t = t.mem_events
let state_entries t = t.entries_charged
