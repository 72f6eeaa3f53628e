open Intersect

type config = {
  seed : int;
  trials : int;
  k : int;
  universe_bits : int;
  overlap : int;
  protocols : string list;
  plans : (string * Commsim.Faults.link) list;
  budget_attempts : int;
  check_bits : int;
}

let protocol_names = [ "trivial"; "tree"; "bucket" ]

let plan_catalogue =
  let open Commsim.Faults in
  [
    ("clean", clean_link);
    ("flip-1e-4", flipping 1e-4);
    ("flip-1e-3", flipping 1e-3);
    ("trunc-1e-2", { clean_link with trunc = 1e-2 });
    ("dup-5e-2", { clean_link with dup = 5e-2 });
    ("drop-2e-2", dropping 2e-2);
    ("storm", { flip = 2e-4; trunc = 5e-3; dup = 2e-2; drop = 1e-2 });
  ]

let default =
  {
    seed = 2014;
    trials = 1000;
    k = 24;
    universe_bits = 20;
    overlap = 12;
    protocols = protocol_names;
    plans = plan_catalogue;
    (* Attempts beyond ~8 are wasted work for message-heavy protocols under
       heavy flipping: per-attempt survival is low enough there that the
       exact deterministic fallback is the cheaper road to the answer. *)
    budget_attempts = 8;
    check_bits = 32;
  }

let smoke =
  {
    default with
    trials = 40;
    k = 16;
    overlap = 8;
    protocols = [ "trivial"; "tree" ];
    plans =
      List.filter (fun (name, _) -> List.mem name [ "clean"; "flip-1e-3"; "drop-2e-2" ]) plan_catalogue;
    budget_attempts = 8;
  }

type cell = {
  protocol : string;
  plan : string;
  trials : int;
  exact : int;
  verified : int;
  degraded : int;
  attempts_total : int;
  rejected : int;
  lost : int;
  crashed : int;
  mean_bits : float;
  baseline_bits : float;
  overhead : float;
  error_rate : float;
  error_upper95 : float;
  error_bound : float;
  within_bound : bool;
  flipped_bits : int;
  truncated : int;
  duplicated : int;
  dropped : int;
  first_failure : string option;
}

type report = { config : config; cells : cell list }

let base_of_name ~k name =
  match name with
  | "trivial" -> Resilient.trivial_base
  | "tree" -> Resilient.tree_base ~k ()
  | "bucket" -> Resilient.bucket_base ~k ()
  | _ ->
      invalid_arg
        ("Soak: unknown protocol " ^ name ^ " (known: " ^ String.concat ", " protocol_names ^ ")")

(* The engine seed stream of one (protocol x plan) cell.  The label format
   predates the engine; keeping it means any soak JSON ever published
   reproduces bit for bit through the new derivation. *)
let cell_stream (config : config) ~proto_name ~plan_name =
  Engine.Seed_stream.create ~base:config.seed
    ~label:(Printf.sprintf "soak/%s/%s" proto_name plan_name)

(* One seeded trial: inputs, per-trial fault plan and the wrapper run are
   all derived from [rng] alone, so trials can run on any domain in any
   order. *)
let trial ~universe ~k ~overlap ~attempts ~check_bits base ~link rng =
  let pair =
    Setgen.pair_with_overlap
      (Prng.Rng.with_label rng "inputs")
      ~universe ~size_s:k ~size_t:k ~overlap
  in
  let plan =
    Commsim.Faults.uniform ~seed:(Prng.Rng.bits (Prng.Rng.with_label rng "plan") ~width:30) link
  in
  let report =
    Resilient.run base ~plan
      ~budget:{ Resilient.attempts; bits = max_int }
      ~check_bits
      (Prng.Rng.with_label rng "protocol")
      ~universe pair.Setgen.s pair.Setgen.t
  in
  let truth = Iset.inter pair.Setgen.s pair.Setgen.t in
  (report, Iset.equal report.Resilient.result truth)

(* Trial [i] of a cell's seed stream under the config's sizes and budget. *)
let cell_trial (config : config) base ~stream ~link i =
  trial ~universe:(1 lsl config.universe_bits) ~k:config.k ~overlap:config.overlap
    ~attempts:config.budget_attempts ~check_bits:config.check_bits base ~link
    (Engine.Seed_stream.trial_rng stream i)

let mean_bits_of reports =
  let total =
    List.fold_left (fun acc r -> acc + r.Resilient.cost.Commsim.Cost.total_bits) 0 reports
  in
  float_of_int total /. float_of_int (max 1 (List.length reports))

(* Fault-free cost of the wrapper on this protocol — the denominator of the
   per-cell overhead column.  A few dozen trials pin the mean well enough. *)
let baseline ?domains (config : config) base ~proto_name =
  let n = min config.trials 64 in
  let stream = cell_stream config ~proto_name ~plan_name:"baseline" in
  let reports =
    Engine.Pool.map ?domains ~trials:n (fun i ->
        fst (cell_trial config base ~stream ~link:Commsim.Faults.clean_link (i + 1)))
  in
  mean_bits_of (Array.to_list reports)

(* The wrapper's rare-event gate: an accepted fingerprint collision has
   probability <= attempts * 2^-check_bits per trial, so a cell passes
   with no failure or with a failure rate within that bound. *)
let rare_event_gate ~attempts ~check_bits ~failures ~trials =
  let bound = float_of_int attempts *. (2.0 ** float_of_int (-check_bits)) in
  (bound, failures = 0 || float_of_int failures /. float_of_int trials <= bound)

let run_cell ?domains ?sink (config : config) base ~proto_name ~plan_name ~link ~baseline_bits =
  let stream = cell_stream config ~proto_name ~plan_name in
  let outcomes =
    Array.to_list
      (Engine.Pool.map ?domains ~trials:config.trials (fun i ->
           cell_trial config base ~stream ~link (i + 1)))
  in
  let reports = List.map fst outcomes in
  let exact = List.length (List.filter snd outcomes) in
  (* Telemetry aggregation happens sequentially after the parallel map,
     in trial order, so the stream is byte-identical across domain
     counts. *)
  (match sink with
  | None -> ()
  | Some sink ->
      let sketch = Obsv.Sketch.create () in
      List.iter
        (fun r -> Obsv.Sketch.observe sketch r.Resilient.cost.Commsim.Cost.total_bits)
        reports;
      Telemetry.record_cell sink ~prefix:"soak" ~trials:config.trials ~exact
        ~degraded:(List.length (List.filter (fun r -> r.Resilient.degraded) reports))
        ~sketch);
  let count f = List.length (List.filter f reports) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let failure_sums =
    List.fold_left
      (fun (rej, lost, crash) r ->
        let r', l', c' = Resilient.failure_counts r in
        (rej + r', lost + l', crash + c'))
      (0, 0, 0) reports
  in
  let rejected, lost, crashed = failure_sums in
  let tally =
    List.fold_left
      (fun acc r -> Commsim.Faults.add_tally acc (Commsim.Faults.total r.Resilient.tallies))
      Commsim.Faults.zero_tally reports
  in
  let mean_bits = mean_bits_of reports in
  let failures = config.trials - exact in
  let error_rate = float_of_int failures /. float_of_int config.trials in
  let error_bound, within_bound =
    rare_event_gate ~attempts:config.budget_attempts ~check_bits:config.check_bits ~failures
      ~trials:config.trials
  in
  {
    protocol = proto_name;
    plan = plan_name;
    trials = config.trials;
    exact;
    verified = count (fun r -> r.Resilient.verified);
    degraded = count (fun r -> r.Resilient.degraded);
    attempts_total = sum (fun r -> r.Resilient.attempts);
    rejected;
    lost;
    crashed;
    mean_bits;
    baseline_bits;
    overhead = (if baseline_bits > 0.0 then mean_bits /. baseline_bits else Float.nan);
    error_rate;
    error_upper95 = Stats.Binomial.upper95 ~failures ~trials:config.trials;
    error_bound;
    within_bound;
    flipped_bits = tally.Commsim.Faults.flipped_bits;
    truncated = tally.Commsim.Faults.truncated_messages;
    duplicated = tally.Commsim.Faults.duplicated_messages;
    dropped = tally.Commsim.Faults.dropped_messages;
    (* The first carried diagnosis in the cell — the concrete "who wedged
       on which message" sample a human reaches for when a cell looks bad. *)
    first_failure =
      List.find_map
        (fun r ->
          List.find_map
            (function
              | Resilient.Check_rejected -> None
              | Resilient.Channel_lost d -> Some ("channel lost: " ^ d)
              | Resilient.Party_crashed d -> Some ("party crashed: " ^ d))
            r.Resilient.failures)
        reports;
  }

let run ?domains ?sink (config : config) =
  if config.trials < 1 then invalid_arg "Soak.run: trials";
  if config.overlap > config.k then invalid_arg "Soak.run: overlap > k";
  let cells =
    List.concat_map
      (fun proto_name ->
        let base = base_of_name ~k:config.k proto_name in
        let baseline_bits = baseline ?domains config base ~proto_name in
        List.map
          (fun (plan_name, link) ->
            run_cell ?domains ?sink config base ~proto_name ~plan_name ~link ~baseline_bits)
          config.plans)
      config.protocols
  in
  { config; cells }

let json_of_link (l : Commsim.Faults.link) =
  Stats.Json.Obj
    [
      ("flip", Stats.Json.Float l.Commsim.Faults.flip);
      ("trunc", Stats.Json.Float l.Commsim.Faults.trunc);
      ("dup", Stats.Json.Float l.Commsim.Faults.dup);
      ("drop", Stats.Json.Float l.Commsim.Faults.drop);
    ]

let json_of_cell c =
  Stats.Json.Obj
    [
      ("protocol", Stats.Json.Str c.protocol);
      ("plan", Stats.Json.Str c.plan);
      ("trials", Stats.Json.Int c.trials);
      ("exact", Stats.Json.Int c.exact);
      ("verified", Stats.Json.Int c.verified);
      ("degraded", Stats.Json.Int c.degraded);
      ("attempts_total", Stats.Json.Int c.attempts_total);
      ("rejected", Stats.Json.Int c.rejected);
      ("lost", Stats.Json.Int c.lost);
      ("crashed", Stats.Json.Int c.crashed);
      ("mean_bits", Stats.Json.Float c.mean_bits);
      ("baseline_bits", Stats.Json.Float c.baseline_bits);
      ("overhead", Stats.Json.Float c.overhead);
      ("error_rate", Stats.Json.Float c.error_rate);
      ("error_upper95", Stats.Json.Float c.error_upper95);
      ("error_bound", Stats.Json.Float c.error_bound);
      ("within_bound", Stats.Json.Bool c.within_bound);
      ( "injected",
        Stats.Json.Obj
          [
            ("flipped_bits", Stats.Json.Int c.flipped_bits);
            ("truncated", Stats.Json.Int c.truncated);
            ("duplicated", Stats.Json.Int c.duplicated);
            ("dropped", Stats.Json.Int c.dropped);
          ] );
      ( "first_failure",
        match c.first_failure with None -> Stats.Json.Null | Some d -> Stats.Json.Str d );
    ]

let to_json ?reproduce report =
  let c = report.config in
  Stats.Json.Obj
    (List.concat
       [
         (match reproduce with Some cmd -> [ ("reproduce", Stats.Json.Str cmd) ] | None -> []);
         [
           ( "config",
             Stats.Json.Obj
               [
                 ("seed", Stats.Json.Int c.seed);
                 ("trials", Stats.Json.Int c.trials);
                 ("k", Stats.Json.Int c.k);
                 ("universe_bits", Stats.Json.Int c.universe_bits);
                 ("overlap", Stats.Json.Int c.overlap);
                 ("protocols", Stats.Json.List (List.map (fun p -> Stats.Json.Str p) c.protocols));
                 ( "plans",
                   Stats.Json.Obj (List.map (fun (name, link) -> (name, json_of_link link)) c.plans)
                 );
                 ("budget_attempts", Stats.Json.Int c.budget_attempts);
                 ("check_bits", Stats.Json.Int c.check_bits);
               ] );
           ("cells", Stats.Json.List (List.map json_of_cell report.cells));
         ];
       ])

let summary report =
  let table =
    Stats.Table.create ~title:"Adversarial-channel soak"
      ~columns:
        [
          "protocol";
          "plan";
          "exact";
          "verified";
          "degraded";
          "att/trial";
          "overhead";
          "err<=95%";
          "bound ok";
        ]
  in
  List.iter
    (fun c ->
      Stats.Table.add_row table
        [
          c.protocol;
          c.plan;
          Printf.sprintf "%d/%d" c.exact c.trials;
          string_of_int c.verified;
          string_of_int c.degraded;
          Printf.sprintf "%.2f" (float_of_int c.attempts_total /. float_of_int c.trials);
          Printf.sprintf "%.2fx" c.overhead;
          Printf.sprintf "%.2g" c.error_upper95;
          (if c.within_bound then "yes" else "NO");
        ])
    report.cells;
  Stats.Table.render table
