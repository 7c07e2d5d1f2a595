(* The long-lived campaign service behind `racefuzzer serve`.

   Everything the scheduler knows lives in one sealed-JSONL ledger next
   to the corpus index, rewritten atomically after every verdict — the
   journal/corpus durability discipline applied to scheduling state, so
   a SIGKILL at any instant costs at most the verdict being computed,
   never one already settled.  Revalidation is exactly-once per cycle
   (ledger-gated); campaign waves are at-least-once (a wave killed
   mid-flight simply re-runs, and corpus dedup absorbs the repeats). *)

open Rf_util
module Fuzzer = Racefuzzer.Fuzzer

(* ------------------------------------------------------------------ *)
(* Retry policy: deterministic exponential backoff with FNV jitter.    *)

module Retry = struct
  type policy = {
    rp_max_attempts : int;
    rp_base : float;
    rp_factor : float;
    rp_max : float;
    rp_jitter : float;
    rp_strikes : int;
  }

  let default =
    {
      rp_max_attempts = 3;
      rp_base = 0.01;
      rp_factor = 2.0;
      rp_max = 0.5;
      rp_jitter = 0.25;
      rp_strikes = 3;
    }

  (* Same 30-bit unit-interval construction as Chaos.unit_float: jitter
     is a pure function of (item key, attempt), so a retried item backs
     off identically on every run and every host. *)
  let jitter_unit ~key ~attempt =
    let h = Fnv.fold_string63 Fnv.basis63 key in
    let h = Fnv.mask63 (Fnv.fold_int63 h attempt) in
    float_of_int (h land 0x3FFFFFFF) /. 1073741824.0

  let delay p ~key ~attempt =
    let raw = p.rp_base *. (p.rp_factor ** float_of_int (attempt - 1)) in
    let capped = Float.min p.rp_max raw in
    let u = jitter_unit ~key ~attempt in
    Float.max 0.0 (capped *. (1.0 +. (p.rp_jitter *. ((2.0 *. u) -. 1.0))))

  let exhausted p ~attempt = attempt >= p.rp_max_attempts
end

(* ------------------------------------------------------------------ *)
(* The scheduler ledger: corpus-index idiom, scheduling content.       *)

module Ledger = struct
  type verdict = Still_racy | Regressed | Fixed | Intact | Failed

  let verdict_to_string = function
    | Still_racy -> "still-racy"
    | Regressed -> "regressed"
    | Fixed -> "fixed"
    | Intact -> "intact"
    | Failed -> "failed"

  let verdict_of_string = function
    | "still-racy" -> Some Still_racy
    | "regressed" -> Some Regressed
    | "fixed" -> Some Fixed
    | "intact" -> Some Intact
    | "failed" -> Some Failed
    | _ -> None

  type item = {
    li_kind : string;
    li_key : string;
    li_verdict : verdict;
    li_cycle : int;
    li_attempts : int;
    li_strikes : int;
    li_quarantine : string;
  }

  type target = {
    lt_name : string;
    lt_tokens : float;
    lt_mtime : float;
    lt_campaigns : int;
    lt_confirmed : string;
  }

  type cycle = {
    lc_cycle : int;
    lc_fingerprint : string;
    lc_checked : int;
    lc_still : int;
    lc_fixed : int;
    lc_regressed : int;
    lc_intact : int;
    lc_failed : int;
    lc_campaigns : int;
    lc_wreq : int;
    lc_wact : int;
  }

  type t = {
    mutable l_cycle : int;
    l_items : (string * string, item) Hashtbl.t;
    l_targets : (string, target) Hashtbl.t;
    mutable l_cycles : cycle list;
  }

  let path dir = Filename.concat dir "serve.ledger.jsonl"
  let header_line = Json.seal {|{"ledger":1}|}

  let fresh () =
    {
      l_cycle = 1;
      l_items = Hashtbl.create 64;
      l_targets = Hashtbl.create 8;
      l_cycles = [];
    }

  let sealed fields = Json.seal (Json.render_flat fields)

  let render_item (i : item) =
    sealed
      Json.
        [
          ("rec", S "item");
          ("kind", S i.li_kind);
          ("key", S i.li_key);
          ("verdict", S (verdict_to_string i.li_verdict));
          ("cycle", I i.li_cycle);
          ("attempts", I i.li_attempts);
          ("strikes", I i.li_strikes);
          ("quarantine", S i.li_quarantine);
        ]

  let render_target (t : target) =
    sealed
      Json.
        [
          ("rec", S "target");
          ("name", S t.lt_name);
          ("tokens", F t.lt_tokens);
          ("mtime", F t.lt_mtime);
          ("campaigns", I t.lt_campaigns);
          ("confirmed", S t.lt_confirmed);
        ]

  let render_cycle (c : cycle) =
    sealed
      Json.
        [
          ("rec", S "cycle");
          ("cycle", I c.lc_cycle);
          ("fingerprint", S c.lc_fingerprint);
          ("checked", I c.lc_checked);
          ("still", I c.lc_still);
          ("fixed", I c.lc_fixed);
          ("regressed", I c.lc_regressed);
          ("intact", I c.lc_intact);
          ("failed", I c.lc_failed);
          ("campaigns", I c.lc_campaigns);
          ("wreq", I c.lc_wreq);
          ("wact", I c.lc_wact);
        ]

  let render_meta (t : t) = sealed Json.[ ("rec", S "meta"); ("cycle", I t.l_cycle) ]

  let item_of_fields fields =
    match
      ( Json.str fields "kind",
        Json.str fields "key",
        Option.bind (Json.str fields "verdict") verdict_of_string,
        Json.int fields "cycle" )
    with
    | Some li_kind, Some li_key, Some li_verdict, Some li_cycle ->
        Some
          {
            li_kind;
            li_key;
            li_verdict;
            li_cycle;
            li_attempts = Option.value ~default:1 (Json.int fields "attempts");
            li_strikes = Option.value ~default:0 (Json.int fields "strikes");
            li_quarantine = Option.value ~default:"" (Json.str fields "quarantine");
          }
    | _ -> None

  let target_of_fields fields =
    match Json.str fields "name" with
    | Some lt_name ->
        Some
          {
            lt_name;
            lt_tokens = Option.value ~default:0.0 (Json.num fields "tokens");
            lt_mtime = Option.value ~default:0.0 (Json.num fields "mtime");
            lt_campaigns = Option.value ~default:0 (Json.int fields "campaigns");
            lt_confirmed = Option.value ~default:"" (Json.str fields "confirmed");
          }
    | None -> None

  let cycle_of_fields fields =
    match (Json.int fields "cycle", Json.str fields "fingerprint") with
    | Some lc_cycle, Some lc_fingerprint ->
        let n k = Option.value ~default:0 (Json.int fields k) in
        Some
          {
            lc_cycle;
            lc_fingerprint;
            lc_checked = n "checked";
            lc_still = n "still";
            lc_fixed = n "fixed";
            lc_regressed = n "regressed";
            lc_intact = n "intact";
            lc_failed = n "failed";
            lc_campaigns = n "campaigns";
            lc_wreq = n "wreq";
            lc_wact = n "wact";
          }
    | _ -> None

  (* Tolerant load, like Corpus.load: bad seals and torn lines are
     counted and skipped; the next save rewrites a clean file. *)
  let load dir =
    let file = path dir in
    if not (Sys.file_exists file) then (fresh (), 0)
    else begin
      let t = fresh () in
      let skipped = ref 0 in
      List.iter
        (fun line ->
          if String.trim line <> "" then
            match Json.check_seal line with
            | Json.Sealed_bad | Json.Unsealed -> incr skipped
            | Json.Sealed_ok -> (
                match Json.parse_flat line with
                | None -> incr skipped
                | Some fields when List.mem_assoc "ledger" fields -> ()
                | Some fields -> (
                    match Json.str fields "rec" with
                    | Some "meta" ->
                        Option.iter
                          (fun c -> t.l_cycle <- c)
                          (Json.int fields "cycle")
                    | Some "item" ->
                        Option.iter
                          (fun i ->
                            Hashtbl.replace t.l_items (i.li_kind, i.li_key) i)
                          (item_of_fields fields)
                    | Some "target" ->
                        Option.iter
                          (fun tg -> Hashtbl.replace t.l_targets tg.lt_name tg)
                          (target_of_fields fields)
                    | Some "cycle" ->
                        Option.iter
                          (fun c -> t.l_cycles <- t.l_cycles @ [ c ])
                          (cycle_of_fields fields)
                    | _ -> ())))
        (Json.read_lines file);
      if t.l_cycle < List.length t.l_cycles + 1 then
        t.l_cycle <- List.length t.l_cycles + 1;
      (t, !skipped)
    end

  let sorted_items t =
    Hashtbl.fold (fun _ i acc -> i :: acc) t.l_items []
    |> List.sort (fun a b ->
           compare (a.li_kind, a.li_key) (b.li_kind, b.li_key))

  let sorted_targets t =
    Hashtbl.fold (fun _ tg acc -> tg :: acc) t.l_targets []
    |> List.sort (fun a b -> compare a.lt_name b.lt_name)

  let save ~dir t =
    Atomic_file.mkdir_p dir;
    Atomic_file.write (path dir) (fun oc ->
        let line s =
          output_string oc s;
          output_char oc '\n'
        in
        line header_line;
        line (render_meta t);
        List.iter (fun i -> line (render_item i)) (sorted_items t);
        List.iter (fun tg -> line (render_target tg)) (sorted_targets t);
        List.iter (fun c -> line (render_cycle c)) t.l_cycles)
end

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  v_cycles : int;
  v_period : float;
  v_watch : bool;
  v_rate : float;
  v_burst : float;
  v_retry : Retry.policy;
  v_targets : string list;
  v_domains : int;
  v_phase1_seeds : int;
  v_seeds_per_pair : int;
  v_proc : Proc_pool.spec option;
  v_chaos : Chaos.plan option;
}

let default_config =
  {
    v_cycles = 0;
    v_period = 1.0;
    v_watch = false;
    v_rate = 1.0;
    v_burst = 2.0;
    v_retry = Retry.default;
    v_targets = [];
    v_domains = 1;
    v_phase1_seeds = 1;
    v_seeds_per_pair = 20;
    v_proc = None;
    v_chaos = None;
  }

(* ------------------------------------------------------------------ *)
(* Revalidation: replay every corpus repro, integrity-check the rest.  *)

exception Check_failed of string

(* One replay attempt of an error entry's minimized schedule.  True iff
   the recorded error fingerprint is reproduced without divergence —
   the same criterion `racefuzzer replay` applies.  Any other problem
   (unreadable schedule, unresolvable target, divergence, mismatch)
   raises [Check_failed] so the retry loop can spend its budget. *)
let replay_once ~resolve path =
  let sched =
    try Rf_replay.Schedule.load path with
    | Rf_replay.Schedule.Format_error m -> raise (Check_failed m)
    | Sys_error m -> raise (Check_failed m)
  in
  let meta = sched.Rf_replay.Schedule.meta in
  match resolve meta.Rf_replay.Schedule.m_target with
  | Error m -> raise (Check_failed ("target: " ^ m))
  | Ok program -> (
      let o, status = Fuzzer.replay_schedule ~program sched in
      match status.Rf_replay.Replayer.divergence with
      | Some _ -> raise (Check_failed "replay diverged")
      | None ->
          Rf_replay.Schedule.error_fingerprint o
          = meta.Rf_replay.Schedule.m_error)

(* One integrity attempt of a non-replayable entry (degraded records,
   saved traces): artifact present with matching content CRC. *)
let intact_once ~dir (e : Corpus.entry) =
  if e.Corpus.e_file = "" then true
  else begin
    let f = Filename.concat dir e.Corpus.e_file in
    if not (Sys.file_exists f) then
      raise (Check_failed ("missing artifact " ^ e.Corpus.e_file));
    let ic = open_in_bin f in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    if e.Corpus.e_crc <> "" && Fnv.hex63 content <> e.Corpus.e_crc then
      raise (Check_failed ("content mismatch on " ^ e.Corpus.e_file));
    true
  end

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)

let append_torn_line path =
  if Sys.file_exists path then begin
    let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
    output_string oc "{\"torn\":tru";
    (* no newline: a genuinely torn tail *)
    close_out oc
  end

let interruptible_sleep ~stop seconds =
  let t0 = Unix.gettimeofday () in
  while
    (not (Campaign.stop_requested stop))
    && Unix.gettimeofday () -. t0 < seconds
  do
    Unix.sleepf (Float.min 0.05 seconds)
  done

let pr fmt = Fmt.pr fmt

let serve ?(log = Event_log.null ()) ?stop config ~resolve ~dir =
  let stop = match stop with Some s -> s | None -> Campaign.stop_switch () in
  let retry = config.v_retry in
  let chaos = config.v_chaos in
  let ledger, lskipped = Ledger.load dir in
  if lskipped > 0 then
    pr "serve: %d corrupt ledger line(s) skipped (healed on next write)@."
      lskipped;
  if ledger.Ledger.l_cycle > 1 || Hashtbl.length ledger.Ledger.l_items > 0 then
    pr "serve: resuming at cycle %d (%d settled item(s) in the ledger)@."
      ledger.Ledger.l_cycle
      (Hashtbl.length ledger.Ledger.l_items);
  (* Chaos counters for this process run: items revalidated, cycles
     started.  Process-local on purpose — a die_reval kill/restart pair
     must not re-fire in the restarted process. *)
  let revalidated_this_run = ref 0 in
  let cycles_this_run = ref 0 in
  let chaos_n field =
    match chaos with None -> None | Some c -> field c
  in
  let seeds = List.init (max 1 config.v_phase1_seeds) Fun.id in
  let per_pair = List.init (max 1 config.v_seeds_per_pair) Fun.id in
  let completed () = List.length ledger.Ledger.l_cycles in
  let should_continue () =
    (not (Campaign.stop_requested stop))
    && (config.v_cycles = 0 || completed () < config.v_cycles)
  in

  let run_cycle () =
    let cycle = ledger.Ledger.l_cycle in
    incr cycles_this_run;
    pr "--- cycle %d ---@." cycle;

    (* 1. Chaos: torn lines appended before the heal step, so the heal
       is what the acceptance criteria exercise. *)
    if chaos_n (fun c -> c.Chaos.c_torn_index_cycle) = Some !cycles_this_run
    then begin
      pr "chaos: tearing corpus index@.";
      append_torn_line (Filename.concat dir "index.json")
    end;
    if chaos_n (fun c -> c.Chaos.c_torn_ledger_cycle) = Some !cycles_this_run
    then begin
      pr "chaos: tearing ledger@.";
      append_torn_line (Ledger.path dir)
    end;

    (* 2. Heal: a corpus that fails strict verification is rewritten
       from its tolerant read (Corpus.update with nothing to merge);
       the ledger heals by rewriting itself.  After this point both
       stores strictly verify, whatever the previous process left. *)
    (match Corpus.verify ~dir with
    | _ when not (Sys.file_exists (Filename.concat dir "index.json")) ->
        ()  (* nothing persisted yet — nothing to heal *)
    | Ok _ -> ()
    | Error problems ->
        pr "heal: corpus index failed strict verify (%d problem(s)) — rewriting@."
          (List.length problems);
        ignore (Corpus.update ~dir []));
    Ledger.save ~dir ledger;

    (* 3. Revalidation: exactly-once per cycle per corpus entry,
       ledger-gated.  Quarantined items are skipped; items settled by a
       previous incarnation of this cycle are skipped (crash resume). *)
    let entries = Corpus.load dir in
    let checked = ref 0 in
    let tally = Hashtbl.create 8 in
    let bump v =
      Hashtbl.replace tally v (1 + Option.value ~default:0 (Hashtbl.find_opt tally v))
    in
    List.iter
      (fun (e : Corpus.entry) ->
        if not (Campaign.stop_requested stop) then begin
          let key = (e.Corpus.e_kind, e.Corpus.e_key) in
          let prior = Hashtbl.find_opt ledger.Ledger.l_items key in
          let settled =
            match prior with
            | Some i -> i.Ledger.li_cycle >= cycle
            | None -> false
          in
          let quarantined =
            match prior with
            | Some i -> i.Ledger.li_quarantine <> ""
            | None -> false
          in
          if not (settled || quarantined) then begin
            incr revalidated_this_run;
            let self = !revalidated_this_run in
            let item_key = e.Corpus.e_kind ^ ":" ^ e.Corpus.e_key in
            let fail_all = chaos_n (fun c -> c.Chaos.c_fail_reval) = Some self in
            let attempt_once () =
              if fail_all then
                raise (Chaos.Injected_crash "chaos: injected revalidation failure");
              if e.Corpus.e_kind = "error" then
                replay_once ~resolve (Filename.concat dir e.Corpus.e_file)
              else intact_once ~dir e
            in
            (* Retry loop: a *completed* check (either answer) is
               definitive; only raised attempts retry, with the
               deterministic backoff between them. *)
            let rec attempt n =
              match attempt_once () with
              | ok -> Ok (ok, n)
              | exception exn ->
                  let msg =
                    match exn with
                    | Check_failed m -> m
                    | Chaos.Injected_crash m -> m
                    | exn -> Printexc.to_string exn
                  in
                  if Retry.exhausted retry ~attempt:n then Error (msg, n)
                  else begin
                    Unix.sleepf (Retry.delay retry ~key:item_key ~attempt:n);
                    attempt (n + 1)
                  end
            in
            let prev_verdict = Option.map (fun i -> i.Ledger.li_verdict) prior in
            let prev_strikes =
              match prior with Some i -> i.Ledger.li_strikes | None -> 0
            in
            let verdict, attempts, strikes, reason =
              match attempt 1 with
              | Ok (true, n) when e.Corpus.e_kind = "error" ->
                  let v =
                    if prev_verdict = Some Ledger.Fixed then Ledger.Regressed
                    else Ledger.Still_racy
                  in
                  (v, n, prev_strikes, "")
              | Ok (true, n) -> (Ledger.Intact, n, prev_strikes, "")
              | Ok (false, n) ->
                  (* replay completed but did not reproduce: the bug is
                     gone (or the repro rotted) — not a flake, no strike *)
                  (Ledger.Fixed, n, prev_strikes, "")
              | Error (msg, n) -> (Ledger.Failed, n, prev_strikes + 1, msg)
            in
            let quarantine =
              if strikes >= retry.Retry.rp_strikes then
                Printf.sprintf "%d consecutive failed cycle(s); last: %s"
                  strikes reason
              else ""
            in
            (* Chaos: die *before* persisting this verdict — the restart
               must redo exactly this item and nothing before it. *)
            if chaos_n (fun c -> c.Chaos.c_die_reval) = Some self then begin
              pr "chaos: SIGKILL before persisting verdict %d@." self;
              Unix.kill (Unix.getpid ()) Sys.sigkill
            end;
            Hashtbl.replace ledger.Ledger.l_items key
              {
                Ledger.li_kind = e.Corpus.e_kind;
                li_key = e.Corpus.e_key;
                li_verdict = verdict;
                li_cycle = cycle;
                li_attempts = attempts;
                li_strikes = strikes;
                li_quarantine = quarantine;
              };
            Ledger.save ~dir ledger;
            incr checked;
            bump verdict;
            if quarantine <> "" then
              pr "quarantined %s after %d strike(s): %s@." item_key strikes
                reason
            else if verdict = Ledger.Failed then
              pr "failed %s (attempt %d/%d): %s@." item_key attempts
                retry.Retry.rp_max_attempts reason
          end
        end)
      entries;

    (* 4. The cycle's verdict fingerprint: every item settled in this
       cycle (by this process or a killed predecessor), sorted, verdicts
       only — attempts excluded so retries don't perturb it. *)
    let settled_this_cycle =
      Ledger.sorted_items ledger
      |> List.filter (fun i -> i.Ledger.li_cycle = cycle)
    in
    let fingerprint =
      let h =
        List.fold_left
          (fun h (i : Ledger.item) ->
            let h = Fnv.fold_string63 h i.Ledger.li_kind in
            let h = Fnv.fold_string63 h i.Ledger.li_key in
            Fnv.fold_string63 h (Ledger.verdict_to_string i.Ledger.li_verdict))
          Fnv.basis63 settled_this_cycle
      in
      Printf.sprintf "%016x" (Fnv.mask63 h)
    in

    (* 5. Campaign wave: watched changes first (bypass the bucket, at
       most one re-run per target per cycle even under a watch storm),
       then token-paced fresh waves. *)
    let campaigns = ref 0 in
    let wact = ref (-1) in
    if not (Campaign.stop_requested stop) then begin
      let storm = chaos_n (fun c -> c.Chaos.c_watch_storm) = Some !cycles_this_run in
      if storm then pr "chaos: watch storm — every target reports changed@.";
      let corpus_targets =
        List.filter_map
          (fun (e : Corpus.entry) ->
            if e.Corpus.e_target = "" then None else Some e.Corpus.e_target)
          entries
      in
      let targets =
        List.sort_uniq compare (corpus_targets @ config.v_targets)
      in
      List.iter
        (fun name ->
          if not (Campaign.stop_requested stop) then begin
            let tg =
              match Hashtbl.find_opt ledger.Ledger.l_targets name with
              | Some tg -> tg
              | None ->
                  {
                    Ledger.lt_name = name;
                    lt_tokens = config.v_burst;
                    lt_mtime = 0.0;
                    lt_campaigns = 0;
                    lt_confirmed = "";
                  }
            in
            (* Watch: mtime polling for file targets; registry workloads
               have no file to poll and only change via storms. *)
            let mtime =
              if config.v_watch && Sys.file_exists name then
                try (Unix.stat name).Unix.st_mtime with Unix.Unix_error _ -> 0.0
              else 0.0
            in
            let changed =
              config.v_watch
              && (storm || (tg.Ledger.lt_mtime > 0.0 && mtime > tg.Ledger.lt_mtime))
            in
            let tokens =
              Float.min config.v_burst (tg.Ledger.lt_tokens +. config.v_rate)
            in
            let due = changed || tokens >= 1.0 in
            let tokens = if due && not changed then tokens -. 1.0 else tokens in
            let tg =
              { tg with Ledger.lt_tokens = tokens; lt_mtime = mtime }
            in
            let tg =
              if not due then tg
              else begin
                if changed then pr "watch: %s changed — re-running@." name;
                match resolve name with
                | Error m ->
                    pr "serve: cannot resolve target %s: %s — skipping@." name m;
                    tg
                | Ok program ->
                    let proc =
                      Option.map
                        (fun sp -> { sp with Proc_pool.sp_target = name })
                        config.v_proc
                    in
                    let r =
                      Campaign.run ~domains:config.v_domains ~cutoff:true
                        ~phase1_seeds:seeds ~seeds_per_pair:per_pair ~log ?chaos
                        ~stop ?proc ~target:name ~corpus:dir program
                    in
                    pr "campaign: %s (%d candidate pair(s))@." name
                      (List.length r.Campaign.analysis.Fuzzer.a_phase1.Fuzzer.potential);
                    incr campaigns;
                    let active = r.Campaign.stats.Campaign.s_proc_active in
                    wact :=
                      if !wact < 0 then active else Stdlib.min !wact active;
                    (match config.v_proc with
                    | Some sp when active < sp.Proc_pool.sp_workers ->
                        pr
                          "fleet degraded: %d/%d worker(s) — ran %s@."
                          active sp.Proc_pool.sp_workers
                          (if active = 0 then "in-process" else "under-width")
                    | _ -> ());
                    {
                      tg with
                      Ledger.lt_campaigns = tg.Ledger.lt_campaigns + 1;
                      lt_confirmed =
                        Campaign.confirmed_fingerprint r.Campaign.analysis;
                    }
              end
            in
            Hashtbl.replace ledger.Ledger.l_targets name tg;
            Ledger.save ~dir ledger
          end)
        targets
    end;

    (* 6. Seal the cycle.  Interrupted cycles are deliberately NOT
       sealed: the restart resumes them from the per-item ledger. *)
    if not (Campaign.stop_requested stop) then begin
      let wreq =
        match config.v_proc with Some sp -> sp.Proc_pool.sp_workers | None -> 0
      in
      let count v = Option.value ~default:0 (Hashtbl.find_opt tally v) in
      let c =
        {
          Ledger.lc_cycle = cycle;
          lc_fingerprint = fingerprint;
          lc_checked = List.length settled_this_cycle;
          lc_still = count Ledger.Still_racy;
          lc_fixed = count Ledger.Fixed;
          lc_regressed = count Ledger.Regressed;
          lc_intact = count Ledger.Intact;
          lc_failed = count Ledger.Failed;
          lc_campaigns = !campaigns;
          lc_wreq = wreq;
          lc_wact = (if !wact < 0 then wreq else !wact);
        }
      in
      ledger.Ledger.l_cycles <- ledger.Ledger.l_cycles @ [ c ];
      ledger.Ledger.l_cycle <- cycle + 1;
      Ledger.save ~dir ledger;
      pr
        "cycle %d done: revalidated %d of %d settled (still-racy %d, fixed %d, \
         regressed %d, intact %d, failed %d), %d campaign(s), fingerprint %s@."
        cycle !checked c.Ledger.lc_checked c.Ledger.lc_still c.Ledger.lc_fixed
        c.Ledger.lc_regressed c.Ledger.lc_intact c.Ledger.lc_failed !campaigns
        fingerprint
    end
  in

  while should_continue () do
    run_cycle ();
    if should_continue () && config.v_period > 0.0 then
      interruptible_sleep ~stop config.v_period
  done;
  if Campaign.stop_requested stop then
    pr "serve: stop requested — drained after %d completed cycle(s)@."
      (completed ())
  else pr "serve: cycle budget reached (%d) — exiting@." (completed ());
  0

(* ------------------------------------------------------------------ *)
(* serve status                                                        *)

let status ~dir =
  let ledger, lskipped = Ledger.load dir in
  let completed = List.length ledger.Ledger.l_cycles in
  pr "corpus:           %s@." dir;
  pr "cycles completed: %d@." completed;
  (match List.rev ledger.Ledger.l_cycles with
  | [] -> ()
  | last :: _ ->
      pr
        "last cycle:       #%d — %d checked: still-racy %d, fixed %d, \
         regressed %d, intact %d, failed %d@."
        last.Ledger.lc_cycle last.Ledger.lc_checked last.Ledger.lc_still
        last.Ledger.lc_fixed last.Ledger.lc_regressed last.Ledger.lc_intact
        last.Ledger.lc_failed;
      pr "verdict print:    %s@." last.Ledger.lc_fingerprint;
      pr "campaigns:        %d last cycle@." last.Ledger.lc_campaigns;
      if last.Ledger.lc_wreq > 0 then
        pr "fleet:            %d/%d worker(s)%s@." last.Ledger.lc_wact
          last.Ledger.lc_wreq
          (if last.Ledger.lc_wact < last.Ledger.lc_wreq then
             " — DEGRADED (in-process fallback)"
           else "")
      else pr "fleet:            in-process@.");
  let quarantined =
    Ledger.sorted_items ledger
    |> List.filter (fun i -> i.Ledger.li_quarantine <> "")
  in
  pr "quarantined:      %d@." (List.length quarantined);
  List.iter
    (fun (i : Ledger.item) ->
      pr "  %s:%s — %s@." i.Ledger.li_kind i.Ledger.li_key
        i.Ledger.li_quarantine)
    quarantined;
  if lskipped > 0 then pr "ledger:           %d corrupt line(s) skipped@." lskipped;
  match Corpus.verify ~dir with
  | Ok n ->
      pr "corpus verify:    OK (%d entries)@." n;
      0
  | Error problems ->
      pr "corpus verify:    FAILED (%d problem(s))@." (List.length problems);
      List.iter (fun p -> pr "  %s@." p) problems;
      1
