type campaign = {
  link : Commsim.Faults.link;
  interrupt : bool;
  deadline_override : int option;
}

type config = {
  seed : int;
  trials : int;
  k : int;
  universe_bits : int;
  overlap : int;
  protocols : string list;
  campaigns : (string * campaign) list;
  deadline_bits : int;
  rung_attempts : int;
  check_bits0 : int;
  backoff_base : int;
  backoff_cap : int;
}

let campaign_catalogue =
  let open Commsim.Faults in
  let steady link = { link; interrupt = false; deadline_override = None } in
  [
    ("clean", steady clean_link);
    ("corruption-storm", steady { clean_link with flip = 2e-3; trunc = 1e-2 });
    ("stall-burst", steady (dropping 0.12));
    ("flap", steady { clean_link with drop = 5e-2; dup = 5e-2 });
    ( "crash-resume",
      {
        link = { flip = 5e-4; trunc = 5e-3; dup = 1e-2; drop = 4e-2 };
        interrupt = true;
        deadline_override = None;
      } );
    ("stall-crash", { link = dropping 0.12; interrupt = true; deadline_override = None });
    ( "deadline-squeeze",
      { link = dropping 0.15; interrupt = false; deadline_override = Some 2_500 } );
  ]

let default =
  {
    seed = 2014;
    trials = 200;
    k = 24;
    universe_bits = 20;
    overlap = 12;
    protocols = [ "trivial"; "tree"; "bucket" ];
    campaigns = campaign_catalogue;
    deadline_bits = 400_000;
    rung_attempts = 3;
    check_bits0 = 32;
    backoff_base = 64;
    backoff_cap = 4096;
  }

let smoke =
  {
    default with
    trials = 12;
    k = 16;
    overlap = 8;
    protocols = [ "trivial"; "tree" ];
    campaigns =
      List.filter
        (fun (name, _) ->
          List.mem name [ "corruption-storm"; "stall-burst"; "crash-resume"; "deadline-squeeze" ])
        campaign_catalogue;
    rung_attempts = 2;
    backoff_base = 32;
  }

type cell = {
  protocol : string;
  campaign : string;
  trials : int;
  completed : int;
  degraded : int;
  failed_safe : int;
  resumed : int;  (* trials where an interrupt/restore cycle was exercised *)
  resumed_identical : int;  (* ... and replayed byte-identically *)
  wrong : int;  (* exact results (completed/degraded) that were not S ∩ T *)
  attempts_total : int;
  rejected : int;
  stalled : int;
  crashed : int;
  deadline : int;
  mean_spent_bits : float;
  mean_backoff_ticks : float;
  wasted_bits_total : int;
  mean_wasted_bits : float;
  recovered : int;  (* sessions that completed after >= 1 failure *)
  mean_recovery_ticks : float;  (* event time burned before the winning attempt *)
}

type report = { config : config; cells : cell list }

let session_config (config : config) (camp : campaign) ~protocol ~plan ~seed =
  {
    Session.Machine.seed;
    protocol;
    k = config.k;
    universe_bits = config.universe_bits;
    plan;
    deadline_bits =
      (match camp.deadline_override with Some d -> d | None -> config.deadline_bits);
    rung_attempts = config.rung_attempts;
    check_bits0 = config.check_bits0;
    backoff_base = config.backoff_base;
    backoff_cap = config.backoff_cap;
  }

(* What one trial contributes to its cell.  [resumed]/[identical] describe
   the interrupt/restore cycle (exercised only in interrupting campaigns
   and only when the session survived past its first step). *)
type obs = {
  report : Session.Machine.report;
  exact_wrong : bool;
  did_resume : bool;
  identical : bool;
  post_mortem : Stats.Json.t option;
      (* flight-recorder dump; assembled only under telemetry, and only
         for sessions that did not end [Completed] *)
}

(* Everything the resumed run must replay bit-for-bit.  [resumes] is
   excluded by construction: it is the one field that legitimately differs
   between the interrupted and the uninterrupted execution. *)
let replay_view (r : Session.Machine.report) =
  ( Session.Machine.outcome_name r.Session.Machine.outcome,
    Session.Machine.result_of r.Session.Machine.outcome,
    r.Session.Machine.attempts,
    List.map
      (fun (k, d) -> (Session.Machine.kind_name k, d))
      r.Session.Machine.failures,
    r.Session.Machine.final_width,
    r.Session.Machine.ledger )

let trial ?(flight = false) (config : config) (camp : campaign) ~protocol ~stream i =
  let rng = Engine.Seed_stream.trial_rng stream i in
  let universe = 1 lsl config.universe_bits in
  let pair =
    Setgen.pair_with_overlap
      (Prng.Rng.with_label rng "inputs")
      ~universe ~size_s:config.k ~size_t:config.k ~overlap:config.overlap
  in
  let plan =
    Commsim.Faults.uniform
      ~seed:(Prng.Rng.bits (Prng.Rng.with_label rng "plan") ~width:30)
      camp.link
  in
  let session_seed = Prng.Rng.bits (Prng.Rng.with_label rng "session") ~width:30 in
  let cfg = session_config config camp ~protocol ~plan ~seed:session_seed in
  let s = pair.Setgen.s and t = pair.Setgen.t in
  let checkpoints = ref [] in
  let on_checkpoint ck = checkpoints := ck :: !checkpoints in
  let recorder = if flight then Obsv.Recorder.create () else Obsv.Recorder.disabled in
  let report =
    Obsv.Recorder.with_recorder recorder (fun () -> Session.Machine.run ~on_checkpoint cfg ~s ~t)
  in
  let did_resume, identical, report =
    if not camp.interrupt then (false, false, report)
    else
      match List.rev !checkpoints with
      | [] -> (false, false, report)
      | boundaries ->
          (* Crash mid-session at a seeded checkpoint boundary: serialize the
             snapshot, reparse it, and resume.  The resumed report must
             replay the uninterrupted one exactly. *)
          let pick =
            Prng.Rng.int (Prng.Rng.with_label rng "interrupt") (List.length boundaries)
          in
          let snapshot = Session.Checkpoint.to_string (List.nth boundaries pick) in
          let continued =
            match Session.Checkpoint.of_string snapshot with
            | Error _ -> None
            | Ok ck -> (
                match Session.Machine.resume cfg ck ~s ~t with
                | Error _ -> None
                | Ok r -> Some r)
          in
          (match continued with
          | None -> (true, false, report)
          | Some r -> (true, replay_view r = replay_view report, r))
  in
  let truth = Iset.inter s t in
  let exact_wrong =
    match Session.Machine.result_of report.Session.Machine.outcome with
    | Some result -> not (Iset.equal result truth)
    | None -> false
  in
  (* Post-mortems only for non-Completed endings: the happy path never
     pays for dump assembly (the recorder itself is a fixed ring). *)
  let post_mortem =
    if not flight then None
    else
      match report.Session.Machine.outcome with
      | Session.Machine.Completed _ -> None
      | o ->
          Some
            (Obsv.Recorder.post_mortem_json ~outcome:(Session.Machine.outcome_name o) recorder)
  in
  { report; exact_wrong; did_resume; identical; post_mortem }

(* Per-cell cap on harvested post-mortems: the dumps are diagnostic
   samples, not a census, and the cap keeps the telemetry stream bounded
   under a pathological campaign. *)
let postmortem_cap = 2

let run_cell ?domains ?sink (config : config) (camp : campaign) ~protocol ~campaign_name =
  let stream =
    Engine.Seed_stream.create ~base:config.seed
      ~label:(Printf.sprintf "chaos/%s/%s" protocol campaign_name)
  in
  let flight = sink <> None in
  let obs =
    Array.to_list
      (Engine.Pool.map ?domains ~trials:config.trials (fun i ->
           trial ~flight config camp ~protocol ~stream (i + 1)))
  in
  (* Telemetry aggregation is sequential and in trial order (after the
     parallel map), so the sink's stream is byte-identical at any domain
     count. *)
  (match sink with
  | None -> ()
  | Some sink ->
      let deadline_bits =
        match camp.deadline_override with Some d -> d | None -> config.deadline_bits
      in
      let harvested = ref 0 in
      List.iter
        (fun o ->
          Telemetry.record_report sink ~deadline_bits o.report ~wrong:o.exact_wrong;
          match o.post_mortem with
          | Some dump when !harvested < postmortem_cap ->
              incr harvested;
              Telemetry.add_postmortem sink dump
          | _ -> ())
        obs;
      ignore (Telemetry.snapshot sink));
  let reports = List.map (fun o -> o.report) obs in
  let count f = List.length (List.filter f reports) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let mean f =
    float_of_int (sum f) /. float_of_int (max 1 (List.length reports))
  in
  let kind_count k =
    sum (fun (r : Session.Machine.report) ->
        List.length
          (List.filter (fun (kind, _) -> kind = k) r.Session.Machine.failures))
  in
  let is_outcome name (r : Session.Machine.report) =
    Session.Machine.outcome_name r.Session.Machine.outcome = name
  in
  let recovered_reports =
    List.filter
      (fun (r : Session.Machine.report) ->
        is_outcome "completed" r && r.Session.Machine.failures <> [])
      reports
  in
  let recovered = List.length recovered_reports in
  let recovery_ticks (r : Session.Machine.report) =
    r.Session.Machine.ledger.Session.Machine.wasted_bits
    + r.Session.Machine.ledger.Session.Machine.backoff_ticks
  in
  {
    protocol;
    campaign = campaign_name;
    trials = config.trials;
    completed = count (is_outcome "completed");
    degraded = count (is_outcome "degraded");
    failed_safe = count (is_outcome "failed_safe");
    resumed = List.length (List.filter (fun o -> o.did_resume) obs);
    resumed_identical = List.length (List.filter (fun o -> o.identical) obs);
    wrong = List.length (List.filter (fun o -> o.exact_wrong) obs);
    attempts_total = sum (fun r -> r.Session.Machine.attempts);
    rejected = kind_count Session.Machine.Rejected;
    stalled = kind_count Session.Machine.Stalled;
    crashed = kind_count Session.Machine.Crashed;
    deadline = kind_count Session.Machine.Deadline;
    mean_spent_bits = mean (fun r -> r.Session.Machine.ledger.Session.Machine.spent_bits);
    mean_backoff_ticks =
      mean (fun r -> r.Session.Machine.ledger.Session.Machine.backoff_ticks);
    wasted_bits_total =
      sum (fun r -> r.Session.Machine.ledger.Session.Machine.wasted_bits);
    mean_wasted_bits =
      mean (fun r -> r.Session.Machine.ledger.Session.Machine.wasted_bits);
    recovered;
    mean_recovery_ticks =
      (if recovered = 0 then 0.0
       else
         float_of_int (List.fold_left (fun acc r -> acc + recovery_ticks r) 0 recovered_reports)
         /. float_of_int recovered);
  }

(* The campaign matrix in execution order, for callers (the CLI's [top])
   that want to drive cells one at a time. *)
let cells_of (config : config) =
  List.concat_map
    (fun protocol ->
      List.map (fun (campaign_name, camp) -> (protocol, campaign_name, camp)) config.campaigns)
    config.protocols

let run ?domains ?sink (config : config) =
  if config.trials < 1 then invalid_arg "Chaos.run: trials";
  if config.overlap > config.k then invalid_arg "Chaos.run: overlap > k";
  let cells =
    List.map
      (fun (protocol, campaign_name, camp) ->
        run_cell ?domains ?sink config camp ~protocol ~campaign_name)
      (cells_of config)
  in
  { config; cells }

let json_of_campaign (c : campaign) =
  Stats.Json.Obj
    ([ ("link", Soak.json_of_link c.link); ("interrupt", Stats.Json.Bool c.interrupt) ]
    @
    match c.deadline_override with
    | None -> []
    | Some d -> [ ("deadline_bits", Stats.Json.Int d) ])

let json_of_cell c =
  Stats.Json.Obj
    [
      ("protocol", Stats.Json.Str c.protocol);
      ("campaign", Stats.Json.Str c.campaign);
      ("trials", Stats.Json.Int c.trials);
      ("completed", Stats.Json.Int c.completed);
      ("degraded", Stats.Json.Int c.degraded);
      ("failed_safe", Stats.Json.Int c.failed_safe);
      ("resumed", Stats.Json.Int c.resumed);
      ("resumed_identical", Stats.Json.Int c.resumed_identical);
      ("wrong", Stats.Json.Int c.wrong);
      ("attempts_total", Stats.Json.Int c.attempts_total);
      ("rejected", Stats.Json.Int c.rejected);
      ("stalled", Stats.Json.Int c.stalled);
      ("crashed", Stats.Json.Int c.crashed);
      ("deadline", Stats.Json.Int c.deadline);
      ("mean_spent_bits", Stats.Json.Float c.mean_spent_bits);
      ("mean_backoff_ticks", Stats.Json.Float c.mean_backoff_ticks);
      ("wasted_bits_total", Stats.Json.Int c.wasted_bits_total);
      ("mean_wasted_bits", Stats.Json.Float c.mean_wasted_bits);
      ("recovered", Stats.Json.Int c.recovered);
      ("mean_recovery_ticks", Stats.Json.Float c.mean_recovery_ticks);
    ]

let to_json ?reproduce report =
  let c = report.config in
  Stats.Json.Obj
    (List.concat
       [
         [ ("bench", Stats.Json.Str "chaos") ];
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
                 ( "protocols",
                   Stats.Json.List (List.map (fun p -> Stats.Json.Str p) c.protocols) );
                 ( "campaigns",
                   Stats.Json.Obj
                     (List.map (fun (name, camp) -> (name, json_of_campaign camp)) c.campaigns)
                 );
                 ("deadline_bits", Stats.Json.Int c.deadline_bits);
                 ("rung_attempts", Stats.Json.Int c.rung_attempts);
                 ("check_bits0", Stats.Json.Int c.check_bits0);
                 ("backoff_base", Stats.Json.Int c.backoff_base);
                 ("backoff_cap", Stats.Json.Int c.backoff_cap);
               ] );
           ("cells", Stats.Json.List (List.map json_of_cell report.cells));
         ];
       ])

(* The chaos invariant, as a checkable predicate: every session ended in a
   structured outcome (the taxonomy partitions the trials), no exact result
   was wrong, and every exercised resume replayed identically. *)
let invariant_violations report =
  List.concat_map
    (fun c ->
      let where = Printf.sprintf "%s/%s" c.protocol c.campaign in
      List.concat
        [
          (if c.completed + c.degraded + c.failed_safe <> c.trials then
             [
               Printf.sprintf "%s: outcomes %d+%d+%d do not partition %d trials" where
                 c.completed c.degraded c.failed_safe c.trials;
             ]
           else []);
          (if c.wrong > 0 then
             [ Printf.sprintf "%s: %d wrong exact result(s)" where c.wrong ]
           else []);
          (if c.resumed_identical <> c.resumed then
             [
               Printf.sprintf "%s: %d of %d resumed session(s) diverged" where
                 (c.resumed - c.resumed_identical) c.resumed;
             ]
           else []);
        ])
    report.cells

let summary report =
  let table =
    Stats.Table.create ~title:"Chaos campaigns"
      ~columns:
        [
          "protocol";
          "campaign";
          "completed";
          "degraded";
          "failsafe";
          "resumed=id";
          "wrong";
          "att/trial";
          "waste/trial";
          "recovery";
        ]
  in
  List.iter
    (fun c ->
      Stats.Table.add_row table
        [
          c.protocol;
          c.campaign;
          Printf.sprintf "%d/%d" c.completed c.trials;
          string_of_int c.degraded;
          string_of_int c.failed_safe;
          Printf.sprintf "%d=%d" c.resumed c.resumed_identical;
          string_of_int c.wrong;
          Printf.sprintf "%.2f" (float_of_int c.attempts_total /. float_of_int c.trials);
          Printf.sprintf "%.0f" c.mean_wasted_bits;
          Printf.sprintf "%.0f" c.mean_recovery_ticks;
        ])
    report.cells;
  Stats.Table.render table
