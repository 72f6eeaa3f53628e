(* Bechamel micro-benchmarks: wall-clock throughput of the substrate
   primitives and one end-to-end run per protocol family.  (The experiment
   tables in Tables measure communication; this section measures time.) *)

open Bechamel
open Toolkit
open Intersect

let seed = 987654321

let make_pair ~universe ~k ~overlap =
  Workload.Setgen.pair_with_overlap (Prng.Rng.of_int seed) ~universe ~size_s:k ~size_t:k ~overlap

let tests () =
  let rng = Prng.Rng.of_int seed in
  let strhash_fn = Strhash.create (Prng.Rng.with_label rng "micro/strhash") ~bits:32 in
  (* Carter-Wegman at two universes, one per arithmetic path: below 2^31
     the hash is native-int arithmetic; at 2^44 it runs the overflow-safe
     Int64 shift-and-add [Modarith.mulmod], several times slower. *)
  let cw_at universe =
    Hashing.Carter_wegman.create (Prng.Rng.with_label rng "micro/cw") ~universe ~range:1024
  in
  let cw_native = cw_at (1 lsl 20) and cw_int64 = cw_at (1 lsl 44) in
  let payload = Bitio.Bits.of_string "a-reasonably-long-message-payload-for-hashing" in
  let pair_small = make_pair ~universe:(1 lsl 30) ~k:256 ~overlap:128 in
  let pair_large = make_pair ~universe:(1 lsl 30) ~k:1024 ~overlap:512 in
  let run_protocol protocol pair i =
    let outcome =
      protocol.Protocol.run
        (Prng.Rng.with_label (Prng.Rng.of_int (seed + i)) "micro/run")
        ~universe:(1 lsl 30) pair.Workload.Setgen.s pair.Workload.Setgen.t
    in
    ignore (Iset.cardinal outcome.Protocol.alice)
  in
  [
    Test.make ~name:"strhash/apply_int" (Staged.stage (fun () -> ignore (Strhash.apply_int strhash_fn 123456789)));
    Test.make ~name:"strhash/apply_string" (Staged.stage (fun () -> ignore (Strhash.apply strhash_fn payload)));
    Test.make ~name:"carter_wegman/hash u=2^20 (native)"
      (Staged.stage (fun () -> ignore (Hashing.Carter_wegman.hash cw_native 654321)));
    Test.make ~name:"carter_wegman/hash u=2^44 (int64)"
      (Staged.stage (fun () -> ignore (Hashing.Carter_wegman.hash cw_int64 987654321)));
    Test.make ~name:"set_codec/gaps k=256"
      (Staged.stage (fun () ->
           let buf = Bitio.Bitbuf.create () in
           Bitio.Set_codec.write_gaps buf pair_small.Workload.Setgen.s));
    Test.make ~name:"protocol/trivial k=1024"
      (Staged.stage (fun () -> run_protocol Trivial.protocol pair_large 0));
    Test.make ~name:"protocol/one-round k=1024"
      (Staged.stage (fun () -> run_protocol (One_round_hash.protocol ()) pair_large 1));
    Test.make ~name:"protocol/tree r=2 k=1024"
      (Staged.stage (fun () -> run_protocol (Tree_protocol.protocol ~r:2 ~k:1024 ()) pair_large 2));
    Test.make ~name:"protocol/tree r=log*k k=1024"
      (Staged.stage (fun () -> run_protocol (Tree_protocol.protocol_log_star ~k:1024 ()) pair_large 3));
    Test.make ~name:"protocol/bucket k=256"
      (Staged.stage (fun () -> run_protocol (Bucket_protocol.protocol ~k:256 ()) pair_small 4));
  ]

(* Observability tax: the bucket protocol timed with the span collector +
   metrics registry enabled vs the shared disabled instances.  Writes
   BENCH_trace_overhead.json so the ratio is tracked across revisions. *)
let trace_overhead ?(out = "BENCH_trace_overhead.json") () =
  let universe = 1 lsl 30 in
  let time_one ~k ~traced =
    let pair = make_pair ~universe ~k ~overlap:(k / 2) in
    let protocol = Bucket_protocol.protocol ~k () in
    let run i =
      let body () =
        let outcome =
          protocol.Protocol.run
            (Prng.Rng.with_label (Prng.Rng.of_int (seed + i)) "micro/overhead")
            ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
        in
        ignore (Iset.cardinal outcome.Protocol.alice)
      in
      if traced then
        Obsv.Trace.with_collector (Obsv.Trace.create ())
          (fun () -> Obsv.Metrics.with_registry (Obsv.Metrics.create ()) body)
      else body ()
    in
    let reps = if k <= 128 then 60 else 12 in
    for i = 0 to 4 do
      run i
    done;
    let t0 = Unix.gettimeofday () in
    for i = 0 to reps - 1 do
      run i
    done;
    let t1 = Unix.gettimeofday () in
    (t1 -. t0) /. float_of_int reps *. 1e9
  in
  let cases =
    List.map
      (fun k ->
        let off = time_one ~k ~traced:false in
        let on_ = time_one ~k ~traced:true in
        (k, off, on_, on_ /. off))
      [ 64; 1024 ]
  in
  let table =
    Stats.Table.create ~title:"Trace overhead (bucket protocol)"
      ~columns:[ "k"; "disabled ns/run"; "enabled ns/run"; "ratio" ]
  in
  List.iter
    (fun (k, off, on_, ratio) ->
      Stats.Table.add_row table
        [
          string_of_int k;
          Stats.Table.cell_float off;
          Stats.Table.cell_float on_;
          Stats.Table.cell_float ~decimals:3 ratio;
        ])
    cases;
  Stats.Table.print table;
  let json =
    Stats.Json.Obj
      [
        ("bench", Stats.Json.Str "trace_overhead");
        ("protocol", Stats.Json.Str "bucket");
        ("seed", Stats.Json.Int seed);
        ( "cases",
          Stats.Json.List
            (List.map
               (fun (k, off, on_, ratio) ->
                 Stats.Json.Obj
                   [
                     ("k", Stats.Json.Int k);
                     ("disabled_ns_per_run", Stats.Json.Float off);
                     ("enabled_ns_per_run", Stats.Json.Float on_);
                     ("overhead_ratio", Stats.Json.Float ratio);
                   ])
               cases) );
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Stats.Json.to_string_pretty json);
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s\n" out

let run () =
  print_endline "Micro-benchmarks (Bechamel, monotonic clock, ns/run):";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let raw =
    List.fold_left
      (fun acc test ->
        let results = Benchmark.all cfg instances (Test.make_grouped ~name:"" [ test ]) in
        Hashtbl.iter (fun name result -> Hashtbl.replace acc name result) results;
        acc)
      (Hashtbl.create 16) (tests ())
  in
  let analyzed = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ ns ] -> (name, ns) :: acc
        | _ -> (name, nan) :: acc)
      analyzed []
    |> List.sort compare
  in
  let table = Stats.Table.create ~title:"Micro (time per run)" ~columns:[ "benchmark"; "ns/run" ] in
  List.iter
    (fun (name, ns) -> Stats.Table.add_row table [ name; Stats.Table.cell_float ns ])
    rows;
  Stats.Table.print table
