(* Engine scaling: throughput and allocation behaviour of the
   Domain-parallel trial runner.

   Two sections, both written to BENCH_engine_scaling.json:

   - [cases]: the same seeded bucket-protocol trial grid at 1, 2 and 4
     worker domains — trials/sec, speedup over the single-domain run,
     plus the calling domain's allocated bytes/trial and the major
     collections observed during the timed grid, so a scheduling
     regression (the 0.44x two-domain figure on a single-core host) is
     attributable to GC pressure vs pure domain-switch overhead.
     Asserts along the way that the merged results are identical at
     every domain count — the engine's determinism contract, measured
     rather than assumed.

   - [alloc]: the allocations-per-trial probe on the bucket hot path
     (k = 1024, sequential): bytes/trial and major collections/trial
     against the committed baseline, with their ratio.  [alloc_gate]
     exits non-zero if bytes/trial regresses past the baseline, on this
     probe or on the same probe of the tree protocol (r = 2, k = 4096).

   The JSON records [cores] (Domain.recommended_domain_count) because
   speedup is bounded by the cores actually available: on a single-core
   host every domain count measures the same sequential throughput plus
   scheduling overhead. *)

open Intersect

let seed = 2014
let k = 64
let universe_bits = 20
let trials = 600

let trial_of ~protocol ~stream ~universe ~k i =
  let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
  let pair =
    Workload.Setgen.pair_with_overlap
      (Prng.Rng.with_label rng "pair")
      ~universe ~size_s:k ~size_t:k ~overlap:(k / 2)
  in
  let outcome =
    protocol.Protocol.run
      (Prng.Rng.with_label rng "protocol")
      ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
  in
  (outcome.Protocol.cost.Commsim.Cost.total_bits, Iset.cardinal outcome.Protocol.alice)

let trial_grid ~domains =
  let universe = 1 lsl universe_bits in
  let protocol = Bucket_protocol.protocol ~k () in
  let stream = Engine.Seed_stream.create ~base:seed ~label:"bench/scaling" in
  Engine.Pool.map ~domains ~trials (fun i -> trial_of ~protocol ~stream ~universe ~k i)

type case_measure = {
  results : (int * int) array;
  rate : float;
  bytes_per_trial : float;  (* calling domain's share only when domains > 1 *)
  majors : int;
}

let time_grid ~domains =
  ignore (trial_grid ~domains);
  (* warm-up *)
  let s0 = Gc.quick_stat () in
  let b0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let results = trial_grid ~domains in
  let t1 = Unix.gettimeofday () in
  let b1 = Gc.allocated_bytes () in
  let s1 = Gc.quick_stat () in
  {
    results;
    rate = float_of_int trials /. (t1 -. t0);
    bytes_per_trial = (b1 -. b0) /. float_of_int trials;
    majors = s1.Gc.major_collections - s0.Gc.major_collections;
  }

(* ---------- allocations-per-trial probes ---------- *)

(* Gate baseline for bytes/trial of the full bucket trial: this probe
   (20 trials, warm pools) measured 1,235,799 bytes once the
   allocation-free tag path landed, plus under 5% headroom.  (The first
   baseline, 9,181,129, was the seed commit's figure before any
   allocation work.)  The tier1 alloc gate fails any build that
   regresses past it; [reduction] reports how far below it the build
   sits. *)
let alloc_baseline_bytes = 1_297_000.0

let alloc_k = 1024

(* Gate baseline for the tree probe (r = 2, k = 4096): this probe
   (20 trials, warm pools, input generation included) measured 1,499,524
   bytes/trial once the tree's tag derivation, tag sets and gap coding
   went allocation-free, against 15,756,667 before; plus under 5%
   headroom. *)
let tree_alloc_baseline_bytes = 1_574_000.0

let tree_alloc_k = 4096
let alloc_trials = 20

type alloc_measure = {
  alloc_bytes_per_trial : float;
  alloc_majors_per_trial : float;
  reduction : float;  (* baseline / measured *)
}

let measure_alloc ~protocol ~k ~label ~baseline =
  let universe = 1 lsl universe_bits in
  let stream = Engine.Seed_stream.create ~base:seed ~label in
  let run_trial i = ignore (Sys.opaque_identity (trial_of ~protocol ~stream ~universe ~k i)) in
  (* Warm-up: codec caches and bitio arenas populate on first use. *)
  for i = 0 to 2 do
    run_trial i
  done;
  let s0 = Gc.quick_stat () in
  let b0 = Gc.allocated_bytes () in
  for i = 0 to alloc_trials - 1 do
    run_trial i
  done;
  let b1 = Gc.allocated_bytes () in
  let s1 = Gc.quick_stat () in
  let bytes = (b1 -. b0) /. float_of_int alloc_trials in
  {
    alloc_bytes_per_trial = bytes;
    alloc_majors_per_trial =
      float_of_int (s1.Gc.major_collections - s0.Gc.major_collections)
      /. float_of_int alloc_trials;
    reduction = (if bytes > 0.0 then baseline /. bytes else Float.infinity);
  }

let alloc_probe () =
  measure_alloc ~protocol:(Bucket_protocol.protocol ~k:alloc_k ()) ~k:alloc_k
    ~label:"bench/scaling/alloc" ~baseline:alloc_baseline_bytes

let tree_alloc_probe () =
  measure_alloc ~protocol:(Tree_protocol.protocol ~r:2 ~k:tree_alloc_k ()) ~k:tree_alloc_k
    ~label:"bench/scaling/alloc-tree" ~baseline:tree_alloc_baseline_bytes

let alloc_json (a : alloc_measure) =
  Stats.Json.Obj
    [
      ("protocol", Stats.Json.Str "bucket");
      ("k", Stats.Json.Int alloc_k);
      ("trials", Stats.Json.Int alloc_trials);
      ("bytes_per_trial", Stats.Json.Float a.alloc_bytes_per_trial);
      ("major_collections_per_trial", Stats.Json.Float a.alloc_majors_per_trial);
      ("seed_baseline_bytes_per_trial", Stats.Json.Float alloc_baseline_bytes);
      ("reduction", Stats.Json.Float a.reduction);
    ]

(* Tier1's allocation-regression gate: fail any build whose bucket
   k=1024 or tree r=2 k=4096 hot path allocates more per trial than its
   baseline. *)
let alloc_gate () =
  let check name k baseline (a : alloc_measure) =
    Printf.printf "alloc gate: %s k=%d  %.0f bytes/trial (baseline %.0f, %.2fx under it)\n" name k
      a.alloc_bytes_per_trial baseline a.reduction;
    a.alloc_bytes_per_trial <= baseline
    || begin
      Printf.eprintf "alloc gate: REGRESSION — %s %.0f bytes/trial exceeds the baseline %.0f\n" name
        a.alloc_bytes_per_trial baseline;
      false
    end
  in
  let bucket = check "bucket" alloc_k alloc_baseline_bytes (alloc_probe ()) in
  let tree = check "tree r=2" tree_alloc_k tree_alloc_baseline_bytes (tree_alloc_probe ()) in
  if bucket && tree then 0 else 1

let run ?(out = "BENCH_engine_scaling.json") () =
  let cores = Domain.recommended_domain_count () in
  let counts = [ 1; 2; 4 ] in
  let measured = List.map (fun d -> (d, time_grid ~domains:d)) counts in
  let baseline = match measured with (_, m) :: _ -> m | [] -> assert false in
  List.iter
    (fun (d, m) ->
      if m.results <> baseline.results then
        failwith (Printf.sprintf "engine scaling: results differ at %d domains" d))
    measured;
  let table =
    Stats.Table.create ~title:"Engine scaling (bucket, k=64, 600 trials)"
      ~columns:[ "domains"; "trials/sec"; "speedup"; "bytes/trial"; "majors" ]
  in
  List.iter
    (fun (d, m) ->
      Stats.Table.add_row table
        [
          string_of_int d;
          Printf.sprintf "%.0f" m.rate;
          Printf.sprintf "%.2fx" (m.rate /. baseline.rate);
          Printf.sprintf "%.0f" m.bytes_per_trial;
          string_of_int m.majors;
        ])
    measured;
  Stats.Table.print table;
  Printf.printf "cores available: %d; merged results identical at every domain count\n" cores;
  let alloc = alloc_probe () in
  Printf.printf "alloc probe: bucket k=%d  %.0f bytes/trial (baseline %.0f, %.2fx under it)\n"
    alloc_k alloc.alloc_bytes_per_trial alloc_baseline_bytes alloc.reduction;
  let json =
    Stats.Json.Obj
      [
        ("bench", Stats.Json.Str "engine_scaling");
        ("protocol", Stats.Json.Str "bucket");
        ("seed", Stats.Json.Int seed);
        ("k", Stats.Json.Int k);
        ("universe_bits", Stats.Json.Int universe_bits);
        ("trials", Stats.Json.Int trials);
        ("cores", Stats.Json.Int cores);
        ("deterministic_across_domains", Stats.Json.Bool true);
        ( "cases",
          Stats.Json.List
            (List.map
               (fun (d, m) ->
                 Stats.Json.Obj
                   [
                     ("domains", Stats.Json.Int d);
                     ("trials_per_sec", Stats.Json.Float m.rate);
                     ("speedup", Stats.Json.Float (m.rate /. baseline.rate));
                     ("bytes_per_trial", Stats.Json.Float m.bytes_per_trial);
                     ("major_collections", Stats.Json.Int m.majors);
                   ])
               measured) );
        ("alloc", alloc_json alloc);
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Stats.Json.to_string_pretty json);
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s\n" out
