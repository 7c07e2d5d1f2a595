(** Offline detection over binary recordings — see the interface for the
    sharding/determinism argument. *)

open Rf_util
open Rf_events

let shard_of_loc ~shards loc =
  if shards <= 1 then 0 else Loc.hash loc mod shards

let feed_shard ~shard ~shards d bt =
  Btrace.iter
    ~keep_mem:(fun loc -> shard_of_loc ~shards loc = shard)
    (Detector.feed d) bt

let replay f recordings = List.iter (fun bt -> Btrace.iter f bt) recordings

let run_shard ~shard ~shards ~make recordings =
  let d = make () in
  List.iter (fun bt -> feed_shard ~shard ~shards d bt) recordings;
  (Detector.races d, Detector.stats d)

(* Dedup by statement pair, keeping the lowest-shard witness: shard
   assignment is a pure function of the location, so the surviving
   witness — hence the merged list — is independent of evaluation
   order. *)
let merge per_shard =
  let seen = ref Site.Pair.Set.empty in
  List.concat per_shard
  |> List.filter (fun (r : Race.t) ->
         if Site.Pair.Set.mem r.Race.pair !seen then false
         else begin
           seen := Site.Pair.Set.add r.Race.pair !seen;
           true
         end)
  |> List.sort (fun (a : Race.t) (b : Race.t) ->
         Site.Pair.compare a.Race.pair b.Race.pair)

(* Shard stats aggregate exactly: locations partition across shards, so
   entries and memory events sum to the inline totals. *)
let merge_stats per_shard =
  List.fold_left
    (fun acc (s : Detector.stats) ->
      {
        Detector.st_entries = acc.Detector.st_entries + s.Detector.st_entries;
        st_mem_events = acc.Detector.st_mem_events + s.Detector.st_mem_events;
      })
    { Detector.st_entries = 0; st_mem_events = 0 }
    per_shard

let detect_stats ?(shards = 1) ?(parallel = false) ~make recordings =
  let shards = max 1 shards in
  if shards = 1 then
    let races, stats = run_shard ~shard:0 ~shards:1 ~make recordings in
    (races, stats)
  else
    let per_shard =
      if not parallel then
        List.init shards (fun shard -> run_shard ~shard ~shards ~make recordings)
      else begin
        (* Shard 0 runs on the calling domain instead of parking it in a
           join beside the shard domains; the others are joined even if it
           raises. *)
        let others =
          List.init (shards - 1) (fun i ->
              Domain.spawn (fun () -> run_shard ~shard:(i + 1) ~shards ~make recordings))
        in
        let first =
          match run_shard ~shard:0 ~shards ~make recordings with
          | r -> Ok r
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        let rest = List.map Domain.join others in
        match first with
        | Ok r -> r :: rest
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      end
    in
    (merge (List.map fst per_shard), merge_stats (List.map snd per_shard))

let detect ?shards ?parallel ~make recordings =
  fst (detect_stats ?shards ?parallel ~make recordings)
