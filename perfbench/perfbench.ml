(* perfbench: the repository benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Trace 0 is the end-to-end run: set-up (timed several times), then a
   closed loop of untraced trials for S seconds.  Trace 1 is the layer
   ledger: the same trials, traced from outside the program, plus replays
   of each layer's public functions.  The last line of stdout is one JSON
   object: correct, attempted, failed and the metrics with their units.
   The exit code is nonzero, with no JSON, when a traced trial's cost
   differs from the untraced run's or set-up is not deterministic. *)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

(* Shortest decimal that reads back as the same float. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else go (p + 1)
    in
    go 6

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, value, unit) ->
        if not (Float.is_finite value) then fail "metric %s is not finite" name;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " body)

let setup_reps = 7

let end_to_end (spec : Trials.spec) ~seed ~seconds ~domains =
  let times = ref [] and pools = ref [] in
  for _ = 1 to setup_reps do
    let t0 = Clock.now_ns () in
    let pool = Trials.setup spec ~seed in
    times := float_of_int (Clock.now_ns () - t0) /. 1e9 :: !times;
    pools := pool :: !pools
  done;
  let pool = List.hd !pools in
  let digest = Trials.digest pool in
  List.iter
    (fun p -> if Trials.digest p <> digest then fail "set-up is not deterministic for seed %d" seed)
    !pools;
  pools := [];
  Printf.printf "perfbench: workload=%s seed=%d domains=%d pool=%d digest=%s\n" spec.name seed domains
    spec.pool digest;
  Array.iter
    (fun (e : Trials.entry) ->
      if not e.exact then
        Printf.printf "perfbench: pool trial %d (%s, overlap %d) is not exact\n" e.index e.proto
          (Trials.overlap spec e.index))
    pool.entries;
  let loop = Trials.closed_loop pool ~domains ~seconds in
  let acc = loop.acc in
  let n = float_of_int acc.n in
  Printf.printf "perfbench: trial_us deciles %s\n"
    (String.concat " "
       (List.init 9 (fun d ->
            Printf.sprintf "%.0f" (float_of_int (Trials.percentile acc (float_of_int (d + 1) /. 10.)) /. 1e3))));
  let ref_exact = Array.for_all (fun (e : Trials.entry) -> e.exact) pool.entries in
  let mean f = Trials.mean_over pool f in
  print_result ~correct:(acc.wrong = 0 && ref_exact) ~attempted:acc.n ~failed:acc.wrong
    [
      ("trials_per_s", n /. (float_of_int loop.wall_ns /. 1e9), "trials/s");
      ("trial_us.p50", float_of_int (Trials.percentile acc 0.50) /. 1e3, "us");
      ("trial_us.p95", float_of_int (Trials.percentile acc 0.95) /. 1e3, "us");
      ("correct_share", (n -. float_of_int acc.wrong) /. n, "fraction");
      ("bits_per_trial", mean (fun e -> e.cost.Commsim.Cost.total_bits), "bits");
      ("messages_per_trial", mean (fun e -> e.cost.Commsim.Cost.messages), "count");
      ("rounds_per_trial", mean (fun e -> e.cost.Commsim.Cost.rounds), "count");
      ("alloc_bytes_per_trial", acc.alloc *. float_of_int (Sys.word_size / 8) /. n, "bytes");
      ("setup_s", Clock.median !times, "s");
    ]

let traced (spec : Trials.spec) ~seed ~seconds ~domains =
  let pool = Trials.setup spec ~seed in
  Printf.printf "perfbench: workload=%s seed=%d domains=%d pool=%d digest=%s traced\n" spec.name seed
    domains spec.pool (Trials.digest pool);
  match Layers.run pool ~domains ~seconds with
  | exception Layers.Mismatch msg -> fail "traced run differs from the untraced program: %s" msg
  | metrics, notes ->
      List.iter print_endline notes;
      let ref_exact = Array.for_all (fun (e : Trials.entry) -> e.exact) pool.entries in
      let failed = Array.fold_left (fun acc (e : Trials.entry) -> if e.exact then acc else acc + 1) 0 pool.entries in
      print_result ~correct:ref_exact ~attempted:(Array.length pool.entries) ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let domains = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced layer run");
      ("--domains", Arg.Set_int domains, "D override the workload's domain count");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match Trials.find !workload with
    | Some s -> s
    | None ->
        fail "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun (s : Trials.spec) -> s.name) Trials.all))
  in
  let domains = if !domains > 0 then !domains else spec.domains in
  if !seconds <= 0. then fail "--seconds must be positive";
  match !trace with
  | 0 -> end_to_end spec ~seed:!seed ~seconds:!seconds ~domains
  | 1 -> traced spec ~seed:!seed ~seconds:!seconds ~domains
  | _ -> fail "--trace must be 0 or 1"
