(* Hot-path regression bench: seeded end-to-end runs of every registered
   two-party protocol, measuring wall-clock (ns/run), allocation pressure
   (bytes allocated per run, via Gc.allocated_bytes deltas) and the exact
   deterministic communication fields (bits, messages, rounds).

   The deterministic fields are the contract: a perf PR may change ns/run
   and bytes/run, but bits/messages/rounds must stay byte-identical for a
   fixed seed (pooling and codec caching must not perturb transcripts).
   Comparison against a committed BENCH_hotpath.json baseline enforces
   both halves: exact equality on the deterministic fields, a configurable
   tolerance on the timing fields.

   Wall-clock reads live in this module only (lint.allow carries the R1
   entry); everything the comparison gates on is seeded and replayable. *)

open Intersect

type cell = {
  protocol : string;
  k : int;
  trials : int;
  reps : int;
  ns_per_run : float;
  alloc_bytes_per_run : float;
  total_bits : int;  (** summed over the seeded trials — deterministic *)
  messages : int;  (** summed over the seeded trials — deterministic *)
  rounds : int;  (** summed over the seeded trials — deterministic *)
}

type report = {
  seed : int;
  universe_bits : int;
  trials : int;
  ks : int list;
  cells : cell list;
}

type config = {
  seed : int;
  universe_bits : int;
  trials : int;
  ks : int list;
  protocols : string list;
}

(* The registered suite: every two-party Protocol.t family the CLI can
   name, each at its default parameterization.  (resilient/star/tournament
   run outside the Protocol.t interface and have their own harnesses:
   Workload.Soak and the multiparty benches.) *)
let protocol_names =
  [
    "trivial";
    "trivial-entropy";
    "full-exchange";
    "one-round";
    "basic";
    "bucket";
    "tree-r2";
    "tree-r3";
    "tree-log-star";
    "verified-tree";
  ]

let protocol_of ~name ~k =
  match name with
  | "trivial" -> Trivial.protocol
  | "trivial-entropy" -> Trivial.protocol_entropy
  | "full-exchange" -> Trivial.protocol_full_exchange
  | "one-round" -> One_round_hash.protocol ()
  | "basic" -> Basic_intersection.protocol ~failure:1e-3
  | "bucket" -> Bucket_protocol.protocol ~k ()
  | "tree-r2" -> Tree_protocol.protocol ~r:2 ~k ()
  | "tree-r3" -> Tree_protocol.protocol ~r:3 ~k ()
  | "tree-log-star" -> Tree_protocol.protocol_log_star ~k ()
  | "verified-tree" -> Verified.protocol (Tree_protocol.protocol_log_star ~k ())
  | name -> invalid_arg ("Regress: unknown protocol " ^ name ^ " (known: " ^ String.concat ", " protocol_names ^ ")")

(* The enumerative codec's bignum decode is super-linear in k (the
   combinatorial-number-system unranking), so its cells stay small; every
   other protocol runs the full sweep. *)
let k_cap ~name = match name with "trivial-entropy" -> 256 | _ -> max_int

(* Fixed rep counts per k keep the measured loop deterministic (reps is
   part of the cell, so two runs of the same config always time the same
   number of executions and amortize warm-up identically). *)
let reps_for k = if k <= 64 then 40 else if k <= 256 then 16 else if k <= 1024 then 6 else 2

let default =
  { seed = 2014; universe_bits = 20; trials = 3; ks = [ 64; 1024; 4096 ]; protocols = protocol_names }

let smoke = { default with ks = [ 64 ]; trials = 2 }

let run_cell ~seed ~universe_bits ~trials ~name ~k =
  let universe = 1 lsl universe_bits in
  let protocol = protocol_of ~name ~k in
  let stream =
    Engine.Seed_stream.create ~base:seed ~label:(Printf.sprintf "regress/%s/k%d" name k)
  in
  let pairs =
    Array.init trials (fun i ->
        let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
        Setgen.pair_with_overlap
          (Prng.Rng.with_label rng "workload")
          ~universe ~size_s:k ~size_t:k ~overlap:(k / 2))
  in
  let run_trial i =
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    let pair = pairs.(i) in
    protocol.Protocol.run
      (Prng.Rng.with_label rng "run")
      ~universe pair.Setgen.s pair.Setgen.t
  in
  (* Deterministic pass: exact cost fields, summed across trials. *)
  let total_bits = ref 0 and messages = ref 0 and rounds = ref 0 in
  for i = 0 to trials - 1 do
    let outcome = run_trial i in
    total_bits := !total_bits + outcome.Protocol.cost.Commsim.Cost.total_bits;
    messages := !messages + outcome.Protocol.cost.Commsim.Cost.messages;
    rounds := !rounds + outcome.Protocol.cost.Commsim.Cost.rounds
  done;
  (* Timed pass: [reps] sweeps over the same trials.  The deterministic
     pass above doubles as warm-up (codec caches hot, buffers pooled). *)
  let reps = reps_for k in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    for i = 0 to trials - 1 do
      ignore (run_trial i)
    done
  done;
  let t1 = Unix.gettimeofday () in
  let a1 = Gc.allocated_bytes () in
  let runs = float_of_int (reps * trials) in
  {
    protocol = name;
    k;
    trials;
    reps;
    ns_per_run = (t1 -. t0) *. 1e9 /. runs;
    alloc_bytes_per_run = (a1 -. a0) /. runs;
    total_bits = !total_bits;
    messages = !messages;
    rounds = !rounds;
  }

let run (config : config) : report =
  let cells =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun k ->
            if k > k_cap ~name then None
            else
              Some
                (run_cell ~seed:config.seed ~universe_bits:config.universe_bits
                   ~trials:config.trials ~name ~k))
          config.ks)
      config.protocols
  in
  {
    seed = config.seed;
    universe_bits = config.universe_bits;
    trials = config.trials;
    ks = config.ks;
    cells;
  }

let cell_json c =
  Stats.Json.Obj
    [
      ("protocol", Stats.Json.Str c.protocol);
      ("k", Stats.Json.Int c.k);
      ("trials", Stats.Json.Int c.trials);
      ("reps", Stats.Json.Int c.reps);
      ("ns_per_run", Stats.Json.Float c.ns_per_run);
      ("alloc_bytes_per_run", Stats.Json.Float c.alloc_bytes_per_run);
      ("total_bits", Stats.Json.Int c.total_bits);
      ("messages", Stats.Json.Int c.messages);
      ("rounds", Stats.Json.Int c.rounds);
    ]

let to_json (report : report) =
  Stats.Json.Obj
    [
      ("bench", Stats.Json.Str "hotpath");
      ("seed", Stats.Json.Int report.seed);
      ("universe_bits", Stats.Json.Int report.universe_bits);
      ("trials", Stats.Json.Int report.trials);
      ("ks", Stats.Json.List (List.map (fun k -> Stats.Json.Int k) report.ks));
      ("cells", Stats.Json.List (List.map cell_json report.cells));
    ]

(* Timings stripped: what two runs of the same config must agree on, byte
   for byte (the tier-1 determinism gate cmps two of these). *)
let deterministic_json (report : report) =
  Stats.Json.Obj
    [
      ("bench", Stats.Json.Str "hotpath-deterministic");
      ("seed", Stats.Json.Int report.seed);
      ("universe_bits", Stats.Json.Int report.universe_bits);
      ("trials", Stats.Json.Int report.trials);
      ( "cells",
        Stats.Json.List
          (List.map
             (fun c ->
               Stats.Json.Obj
                 [
                   ("protocol", Stats.Json.Str c.protocol);
                   ("k", Stats.Json.Int c.k);
                   ("trials", Stats.Json.Int c.trials);
                   ("total_bits", Stats.Json.Int c.total_bits);
                   ("messages", Stats.Json.Int c.messages);
                   ("rounds", Stats.Json.Int c.rounds);
                 ])
             report.cells) );
    ]

let summary (report : report) =
  let table =
    Stats.Table.create ~title:"Hot-path bench (ns/run, bytes allocated/run, exact bits)"
      ~columns:[ "protocol"; "k"; "ns/run"; "alloc B/run"; "bits"; "msgs"; "rounds" ]
  in
  List.iter
    (fun c ->
      Stats.Table.add_row table
        [
          c.protocol;
          string_of_int c.k;
          Stats.Table.cell_float c.ns_per_run;
          Stats.Table.cell_float c.alloc_bytes_per_run;
          string_of_int c.total_bits;
          string_of_int c.messages;
          string_of_int c.rounds;
        ])
    report.cells;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.contents buf

(* ---------- decode and baseline comparison ---------- *)

let ( let* ) = Result.bind

let cell_of_json j =
  let open Stats.Json in
  let* protocol = field "protocol" to_string_opt j in
  let* k = field "k" to_int_opt j in
  let* trials = field "trials" to_int_opt j in
  let* reps = field "reps" to_int_opt j in
  let* ns_per_run = field "ns_per_run" to_float_opt j in
  let* alloc_bytes_per_run = field "alloc_bytes_per_run" to_float_opt j in
  let* total_bits = field "total_bits" to_int_opt j in
  let* messages = field "messages" to_int_opt j in
  let* rounds = field "rounds" to_int_opt j in
  if ns_per_run <= 0.0 || alloc_bytes_per_run <= 0.0 then Error "non-positive timings"
  else if total_bits <= 0 || messages <= 0 || rounds <= 0 then
    Error "non-positive deterministic fields"
  else
    Ok { protocol; k; trials; reps; ns_per_run; alloc_bytes_per_run; total_bits; messages; rounds }

let of_json doc =
  let open Stats.Json in
  let* () = expect "bench" (Str "hotpath") doc in
  let* seed = field "seed" to_int_opt doc in
  let* universe_bits = field "universe_bits" to_int_opt doc in
  let* trials = field "trials" to_int_opt doc in
  let* ks = items "ks" (fun k -> Option.to_result ~none:"not an int" (to_int_opt k)) doc in
  let* cells = items "cells" cell_of_json doc in
  (* Within a protocol, the sweep visits k in increasing order. *)
  let* _last_k =
    List.fold_left
      (fun acc (c : cell) ->
        let* last_k = acc in
        match List.assoc_opt c.protocol last_k with
        | Some prev when c.k <= prev -> Error (Printf.sprintf "k not increasing for %S" c.protocol)
        | _ -> Ok ((c.protocol, c.k) :: last_k))
      (Ok []) cells
  in
  Ok { seed; universe_bits; trials; ks; cells }

type violation = { cell : string; field : string; baseline : float; current : float }

let violation_message v =
  Printf.sprintf "%s: %s baseline %.0f, current %.0f" v.cell v.field v.baseline v.current

(* Deterministic fields (bits, messages, rounds, trials) must match
   exactly; ns/run and alloc-bytes/run may regress by at most [tolerance]
   (a fraction: 0.5 allows 1.5x the baseline).  Cells absent from the
   baseline are skipped, so a smoke run checks only the cells it shares
   with the committed sweep. *)
let compare_baseline ~tolerance (report : report) (baseline : report) =
  let shared =
    List.filter_map
      (fun (c : cell) ->
        List.find_opt (fun (b : cell) -> b.protocol = c.protocol && b.k = c.k) baseline.cells
        |> Option.map (fun b -> (b, c)))
      report.cells
  in
  let violations ((b : cell), (c : cell)) =
    let cell = Printf.sprintf "%s k=%d" c.protocol c.k in
    let exact field bv cv =
      if bv = cv then []
      else [ { cell; field; baseline = float_of_int bv; current = float_of_int cv } ]
    in
    let timing field bv cv =
      if cv > bv *. (1.0 +. tolerance) then [ { cell; field; baseline = bv; current = cv } ]
      else []
    in
    List.concat
      [
        exact "total_bits" b.total_bits c.total_bits;
        exact "messages" b.messages c.messages;
        exact "rounds" b.rounds c.rounds;
        exact "trials" b.trials c.trials;
        timing "ns_per_run" b.ns_per_run c.ns_per_run;
        timing "alloc_bytes_per_run" b.alloc_bytes_per_run c.alloc_bytes_per_run;
      ]
  in
  (List.length shared, List.concat_map violations shared)
