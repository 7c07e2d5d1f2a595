(* Generated RFL programs for the benchmark workloads.

   Each generator writes a program of fixed shape and size; [seed] only
   moves work around inside that shape (which thread owns which cells,
   loop phases, per-thread splits of a fixed total), so every seed costs
   the same and has the same race inventory.

   The known answers come from the construction, not from a run: the
   generator places every racy statement itself, so it knows each one's
   RFL site ([file:line:col(label)], as Rf_lang.Interp names it) and which
   pairs RaceFuzzer must confirm, may confirm, and must see fail. *)

type expected = {
  must_confirm : string list;  (** real pairs phase 2 has to confirm *)
  may_race : string list;  (** every pair that may be confirmed real *)
  harmful : string list;  (** pairs phase 2 has to confirm harmful *)
}

type program = { file : string; source : string; expected : expected }

(* A racing pair as an order-free key over its two site strings: the
   journal prints pairs in site-id order, which depends on interning
   order and so differs between processes. *)
let pair_key a b = if a <= b then a ^ " | " ^ b else b ^ " | " ^ a

(* Source under construction: [line] returns the 1-based number of the
   line it appends, which is how sites are located. *)
type src = { buf : Buffer.t; mutable n : int }

let src () = { buf = Buffer.create 4096; n = 0 }

let line s text =
  Buffer.add_string s.buf text;
  Buffer.add_char s.buf '\n';
  s.n <- s.n + 1;
  s.n

let linef s fmt = Printf.ksprintf (line s) fmt

(* Index of the first [sub] in [text] at or after [from]. *)
let find ?(from = 0) text sub =
  let n = String.length sub and m = String.length text in
  let rec matches i k = k = n || (text.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + n > m then None else if matches i 0 then Some i else go (i + 1) in
  go from

(* [text] split around its first [sep], both sides trimmed. *)
let around text sep =
  Option.map
    (fun i ->
      let j = i + String.length sep in
      (String.trim (String.sub text 0 i), String.trim (String.sub text j (String.length text - j))))
    (find text sep)

(* Column (1-based) of the [nth] occurrence of [token] in [text]. *)
let col ?(nth = 1) text token =
  let rec go from k =
    match find ~from text token with
    | None -> invalid_arg ("Gen.col: " ^ token)
    | Some i -> if k = nth then i + 1 else go (i + 1) (k + 1)
  in
  go 0 1

(* The site Interp gives an access written as [token] on [text] at [ln]. *)
let site ~file ~ln ?nth text token label =
  Printf.sprintf "%s:%d:%d(%s)" file ln (col ?nth text token) label

(* Emit a line and return its number together with its text. *)
let placed s text = (line s text, text)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [after] clause naming every thread of the previous round. *)
let after = function [] -> "" | prev -> " after " ^ String.concat ", " prev

(* Read-modify-write counter [name] on the returned line: its (read,
   write) and (write, write) pairs. *)
let counter_pairs ~file (ln, text) name =
  let w = site ~file ~ln text name (name ^ "=") in
  let r = site ~file ~ln ~nth:2 text name (name ^ "(read)") in
  (pair_key r w, pair_key w w)

(* ------------------------------------------------------------------ *)
(* fork-rounds: [rounds] rounds of [threads] threads, each round forked
   after every thread of the previous one is joined, so the hybrid
   detector's vector clocks widen by [threads] entries per round.  Every
   thread walks its own block of a race-free [slot] table and bumps a
   shared [hits] counter; a final thread checks the count, so a lost
   update on [hits] is an error. *)

let fork_rounds ~rounds ~threads ~iters ~span ~seed =
  let file = "fork-rounds.rfl" in
  let cells = 1024 in
  let block = cells / threads in
  let st = rng seed 1 in
  let s = src () in
  ignore (linef s "// fork-rounds: %d rounds x %d threads, seed %d" rounds threads seed);
  ignore (linef s "shared int[%d] slot;" cells);
  ignore (line s "shared int hits;");
  ignore (line s "def work(int base, int phase) {");
  ignore (linef s "  for (let j = 0; j < %d; j = j + 1) {" iters);
  ignore (linef s "    for (let k = 0; k < %d; k = k + 1) {" span);
  ignore (linef s "      let i = base + (phase + j * %d + k) %% %d;" span block);
  ignore (line s "      slot[i] = slot[i] + 1;");
  ignore (line s "    }");
  let hits = placed s "    hits = hits + 1;" in
  ignore (line s "  }");
  ignore (line s "}");
  let last =
    List.fold_left
      (fun prev r ->
        let owner = shuffle st (Array.init threads Fun.id) in
        List.init threads (fun t ->
            let name = Printf.sprintf "r%dt%d" r t in
            ignore
              (linef s "thread %s%s { work(%d, %d); }" name (after prev)
                 (owner.(t) * block) (Random.State.int st block));
            name))
      [] (List.init rounds Fun.id)
  in
  ignore
    (linef s "thread check%s { if (hits != %d) { error \"lost update\"; } }" (after last)
       (rounds * threads * iters));
  let rw, ww = counter_pairs ~file hits "hits" in
  {
    file;
    source = Buffer.contents s.buf;
    expected = { must_confirm = [ rw; ww ]; may_race = [ rw; ww ]; harmful = [ rw; ww ] };
  }

(* ------------------------------------------------------------------ *)
(* long-trials: [threads] threads sharing [threads * iters] iterations of
   an unsynchronized counter increment plus a lock-guarded sum; a final
   thread checks the counter.  Trials are long and uniform, so per-step
   engine and strategy cost dominates. *)

let long_trials ~threads ~iters ~seed =
  let file = "long-trials.rfl" in
  let st = rng seed 2 in
  let s = src () in
  ignore (linef s "// long-trials: %d threads x %d iterations, seed %d" threads iters seed);
  ignore (line s "shared int counter;");
  ignore (line s "shared int total;");
  ignore (line s "lock L;");
  ignore (line s "def work(int n, int c) {");
  ignore (line s "  for (let i = 0; i < n; i = i + 1) {");
  let counter = placed s "    counter = counter + 1;" in
  ignore (line s "    sync (L) { total = total + c * i; }");
  ignore (line s "  }");
  ignore (line s "}");
  (* per-thread shares of a fixed total: +d for one thread of each pair,
     -d for the other *)
  let share = Array.make threads iters in
  for t = 0 to (threads / 2) - 1 do
    let d = Random.State.int st ((iters / 4) + 1) in
    share.(2 * t) <- iters + d;
    share.((2 * t) + 1) <- iters - d
  done;
  let names =
    List.init threads (fun t ->
        let name = Printf.sprintf "w%d" t in
        ignore
          (linef s "thread %s { work(%d, %d); }" name share.(t)
             (1 + Random.State.int st 9));
        name)
  in
  ignore
    (linef s "thread check%s { if (counter != %d) { error \"lost update\"; } }"
       (after names)
       (Array.fold_left ( + ) 0 share));
  let rw, ww = counter_pairs ~file counter "counter" in
  {
    file;
    source = Buffer.contents s.buf;
    expected = { must_confirm = [ rw; ww ]; may_race = [ rw; ww ]; harmful = [ rw; ww ] };
  }

(* ------------------------------------------------------------------ *)
(* serve-offline: a server-shaped program.  A config reloader runs
   beside two joined rounds of [workers] workers; each worker serves
   [reqs] requests against
   - a [slots]-cell session table, over a range that overlaps its
     neighbour's by [reqs - stride] cells: a real race, but one that
     needs two neighbours at the same cell at once, so a few trials can
     miss it (may_race, not must_confirm);
   - an unsynchronized [hits] counter (real, benign);
   - a 16-line cache under lock C (race-free);
   - a two-word config [cfg_a, cfg_b] the reloader rewrites [gens]
     times.  Both halves race with the reloader; only the [cfg_b] pair
     can tear a read, because the scheduler switches only at the fuzzed
     pair and at lock operations, so the (cfg_a) pair always sees both
     words of one generation.  A torn read raises "torn config". *)

let serve_offline ~workers ~reqs ~stride ~gens ~seed =
  let file = "serve-offline.rfl" in
  let slots = 4096 in
  let st = rng seed 3 in
  let rot = Random.State.int st slots in
  let check_phase = Random.State.int st 8 in
  let s = src () in
  ignore (linef s "// serve-offline: reloader + 2 rounds x %d workers, seed %d" workers seed);
  ignore (linef s "shared int[%d] session;" slots);
  ignore (line s "shared int hits;");
  ignore (line s "shared int cfg_a;");
  ignore (line s "shared int cfg_b;");
  ignore (line s "shared int[16] cache;");
  ignore (line s "lock C;");
  ignore (line s "def serve(int base, int n) {");
  ignore (line s "  for (let j = 0; j < n; j = j + 1) {");
  ignore (linef s "    let s = (base + j) %% %d;" slots);
  let sess = placed s "    session[s] = session[s] + 1;" in
  let hits = placed s "    hits = hits + 1;" in
  ignore (line s "    if (j % 4 == 0) {");
  ignore (line s "      sync (C) {");
  ignore (line s "        if (cache[s % 16] != s) { cache[s % 16] = s; }");
  ignore (line s "      }");
  ignore (line s "    }");
  ignore (linef s "    if (j %% 8 == %d) {" check_phase);
  let ra = placed s "      let a = cfg_a;" in
  let rb = placed s "      let b = cfg_b;" in
  ignore (line s "      if (a != b) { error \"torn config\"; }");
  ignore (line s "    }");
  ignore (line s "  }");
  ignore (line s "}");
  let reload =
    placed s
      (Printf.sprintf
         "thread reload { for (let g = 1; g <= %d; g = g + 1) { cfg_a = g; cfg_b = g; } }"
         gens)
  in
  let round r prev =
    List.init workers (fun w ->
        let name = Printf.sprintf "r%dw%d" r w in
        ignore
          (linef s "thread %s%s { serve(%d, %d); }" name (after prev)
             ((rot + (((r * workers) + w) * stride)) mod slots)
             reqs);
        name)
  in
  ignore (round 1 (round 0 []));
  let sess_rw, sess_ww =
    let ln, text = sess in
    let w = site ~file ~ln text "session" "session[]=" in
    let r = site ~file ~ln ~nth:2 text "session" "session[](read)" in
    (pair_key r w, pair_key w w)
  in
  let hits_rw, hits_ww = counter_pairs ~file hits "hits" in
  let cfg (ln, text) reader_ln name =
    let rl, rt = reader_ln in
    pair_key (site ~file ~ln:rl rt name (name ^ "(read)")) (site ~file ~ln text (name ^ " =") (name ^ "="))
  in
  let cfg_a = cfg reload ra "cfg_a" and cfg_b = cfg reload rb "cfg_b" in
  let must = [ hits_rw; hits_ww; cfg_a; cfg_b ] in
  {
    file;
    source = Buffer.contents s.buf;
    expected = { must_confirm = must; may_race = must @ [ sess_rw; sess_ww ]; harmful = [ cfg_b ] };
  }
