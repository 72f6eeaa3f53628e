(* Command-line driver for the intersection protocols.

   Examples:
     intersect_cli two --protocol tree -r 3 -k 1024 --overlap 512 --trials 5
     intersect_cli two --protocol trivial -k 256 --universe-bits 40
     intersect_cli multi --players 16 -k 64 --flavor star
     intersect_cli disj -k 128 --overlap 0 *)

open Cmdliner
open Intersect

let protocol_of_name name ~r ~k =
  match name with
  | "trivial" -> Ok Trivial.protocol
  | "full-exchange" -> Ok Trivial.protocol_full_exchange
  | "one-round" -> Ok (One_round_hash.protocol ())
  | "basic" -> Ok (Basic_intersection.protocol ~failure:1e-3)
  | "bucket" -> Ok (Bucket_protocol.protocol ~k ())
  | "tree" -> Ok (Tree_protocol.protocol ~r ~k ())
  | "tree-log-star" -> Ok (Tree_protocol.protocol_log_star ~k ())
  | "verified-tree" -> Ok (Verified.protocol (Tree_protocol.protocol_log_star ~k ()))
  | _ ->
      Error
        (`Msg
          "unknown protocol (try: trivial, full-exchange, one-round, basic, bucket, tree, \
           tree-log-star, verified-tree)")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
let k_arg = Arg.(value & opt int 1024 & info [ "k"; "set-size" ] ~docv:"K" ~doc:"Set-size bound.")

let universe_bits_arg =
  Arg.(value & opt int 30 & info [ "universe-bits" ] ~docv:"B" ~doc:"Universe size 2^B.")

let overlap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "overlap" ] ~docv:"O" ~doc:"Planted intersection size (default k/2).")

let trials_arg = Arg.(value & opt int 3 & info [ "trials" ] ~docv:"N" ~doc:"Number of trials.")

(* Message-level trace of one tree-protocol run (the protocol the trace
   mode drives; the others hide their sessions behind Protocol.run). *)
let print_trace ~r ~k ~universe ~overlap ~seed =
  let rng = Prng.Rng.with_label (Prng.Rng.of_int seed) "cli-trace" in
  let pair =
    Workload.Setgen.pair_with_overlap
      (Prng.Rng.with_label rng "workload")
      ~universe ~size_s:k ~size_t:k ~overlap
  in
  let results, cost, trace =
    Commsim.Network.run_traced
      [|
        (fun ep ->
          Tree_protocol.run_party `Alice rng ~universe ~r ~k
            (Commsim.Chan.of_endpoint ep ~peer:1)
            pair.Workload.Setgen.s);
        (fun ep ->
          Tree_protocol.run_party `Bob rng ~universe ~r ~k
            (Commsim.Chan.of_endpoint ep ~peer:0)
            pair.Workload.Setgen.t);
      |]
  in
  Printf.printf "message trace (tree r=%d, k=%d):\n" r k;
  List.iteri
    (fun i entry ->
      Printf.printf "  #%-3d %s  round %d  %6d bits\n" (i + 1)
        (if entry.Commsim.Network.from_ = 0 then "A->B" else "B->A")
        entry.Commsim.Network.depth entry.Commsim.Network.bits)
    trace;
  Format.printf "total: %a; |result| = %d@." Commsim.Cost.pp cost (Iset.cardinal results.(0))

let two_cmd =
  let protocol_arg =
    Arg.(value & opt string "tree-log-star" & info [ "protocol" ] ~docv:"P" ~doc:"Protocol name.")
  in
  let r_arg = Arg.(value & opt int 3 & info [ "r"; "stages" ] ~docv:"R" ~doc:"Stage budget for tree.") in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the per-message trace of one tree-protocol run.")
  in
  let run name r k universe_bits overlap trials seed trace =
    if trace then begin
      print_trace ~r ~k ~universe:(1 lsl universe_bits)
        ~overlap:(Option.value overlap ~default:(k / 2))
        ~seed;
      0
    end
    else match protocol_of_name name ~r ~k with
    | Error (`Msg m) -> prerr_endline m; 1
    | Ok protocol ->
        let universe = 1 lsl universe_bits in
        let overlap = Option.value overlap ~default:(k / 2) in
        Printf.printf "protocol=%s k=%d universe=2^%d overlap=%d trials=%d\n%!"
          protocol.Protocol.name k universe_bits overlap trials;
        let exact = ref 0 in
        for trial = 1 to trials do
          let rng = Prng.Rng.with_label (Prng.Rng.of_int (seed + trial)) "cli" in
          let pair =
            Workload.Setgen.pair_with_overlap
              (Prng.Rng.with_label rng "workload")
              ~universe ~size_s:k ~size_t:k ~overlap
          in
          let outcome = protocol.Protocol.run rng ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t in
          let ok = Protocol.exact outcome ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t in
          if ok then incr exact;
          Format.printf "  trial %d: %a  |result|=%d  %s@." trial Commsim.Cost.pp
            outcome.Protocol.cost
            (Iset.cardinal outcome.Protocol.alice)
            (if ok then "exact" else "INEXACT")
        done;
        Printf.printf "exact: %d/%d\n" !exact trials;
        0
  in
  Cmd.v
    (Cmd.info "two" ~doc:"Run a two-party intersection protocol on generated sets.")
    Term.(
      const run $ protocol_arg $ r_arg $ k_arg $ universe_bits_arg $ overlap_arg $ trials_arg
      $ seed_arg $ trace_arg)

let multi_cmd =
  let players_arg =
    Arg.(value & opt int 8 & info [ "players" ] ~docv:"M" ~doc:"Number of players.")
  in
  let flavor_arg =
    Arg.(
      value
      & opt (enum [ ("star", `Star); ("tournament", `Tournament) ]) `Star
      & info [ "flavor" ] ~docv:"F" ~doc:"star (Cor 4.1) or tournament (Cor 4.2).")
  in
  let core_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "core" ] ~docv:"C" ~doc:"Size of the planted common core (default k/4).")
  in
  let run players flavor k universe_bits core seed =
    let universe = 1 lsl universe_bits in
    let core = Option.value core ~default:(k / 4) in
    let rng = Prng.Rng.of_int seed in
    let sets =
      Workload.Setgen.family_with_core
        (Prng.Rng.with_label rng "workload")
        ~universe ~players ~size:k ~core
    in
    let result, cost =
      match flavor with
      | `Star -> Multiparty.Star.run (Prng.Rng.with_label rng "star") ~universe ~k sets
      | `Tournament -> Multiparty.Tournament.run (Prng.Rng.with_label rng "tournament") ~universe ~k sets
    in
    let truth = Iset.inter_many (Array.to_list sets) in
    Format.printf "m=%d k=%d core=%d: %a@." players k core Commsim.Cost.pp cost;
    Printf.printf "avg bits/player %.0f, busiest player %d bits\n"
      (Commsim.Cost.avg_player_bits cost)
      (Commsim.Cost.max_player_bits cost);
    Printf.printf "result %s (|intersection| = %d)\n"
      (if Iset.equal result truth then "exact" else "INEXACT")
      (Iset.cardinal result);
    let per_player =
      Stats.Table.create ~title:"per-player" ~columns:Commsim.Cost.breakdown_columns
    in
    List.iter (Stats.Table.add_row per_player) (Commsim.Cost.breakdown_rows cost);
    Stats.Table.print per_player;
    0
  in
  Cmd.v
    (Cmd.info "multi" ~doc:"Run a multi-party intersection protocol.")
    Term.(const run $ players_arg $ flavor_arg $ k_arg $ universe_bits_arg $ core_arg $ seed_arg)

let disj_cmd =
  let bits_arg =
    Arg.(value & opt int 8 & info [ "bits-per-message" ] ~docv:"B" ~doc:"HW density knob.")
  in
  let run k universe_bits overlap bits seed =
    let universe = 1 lsl universe_bits in
    let overlap = Option.value overlap ~default:0 in
    let rng = Prng.Rng.of_int seed in
    let pair =
      Workload.Setgen.pair_with_overlap
        (Prng.Rng.with_label rng "workload")
        ~universe ~size_s:k ~size_t:k ~overlap
    in
    let outcome =
      Disjointness.hw ~bits_per_message:bits
        (Prng.Rng.with_label rng "disj")
        ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
    in
    Format.printf "verdict: %s  %a@."
      (if outcome.Disjointness.disjoint then "disjoint" else "intersecting")
      Commsim.Cost.pp outcome.Disjointness.cost;
    0
  in
  Cmd.v
    (Cmd.info "disj" ~doc:"Run the Hastad-Wigderson-style disjointness baseline.")
    Term.(const run $ k_arg $ universe_bits_arg $ overlap_arg $ bits_arg $ seed_arg)

let similarity_cmd =
  let sketch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sketch" ] ~docv:"S"
          ~doc:"Also run a bottom-$(docv) min-wise sketch for comparison.")
  in
  let run k universe_bits overlap seed sketch =
    let universe = 1 lsl universe_bits in
    let overlap = Option.value overlap ~default:(k / 3) in
    let rng = Prng.Rng.of_int seed in
    let pair =
      Workload.Setgen.pair_with_overlap
        (Prng.Rng.with_label rng "workload")
        ~universe ~size_s:k ~size_t:k ~overlap
    in
    let result =
      Apps.Similarity.run (Prng.Rng.with_label rng "sim") ~universe pair.Workload.Setgen.s
        pair.Workload.Setgen.t
    in
    Printf.printf "|S cap T| = %d, |S cup T| = %d\n" result.Apps.Similarity.intersection_size
      result.Apps.Similarity.union_size;
    Printf.printf "jaccard = %.4f, hamming = %d, 1-rarity = %.4f, 2-rarity = %.4f\n"
      result.Apps.Similarity.jaccard result.Apps.Similarity.hamming result.Apps.Similarity.rarity1
      result.Apps.Similarity.rarity2;
    Format.printf "exact answer cost: %a@." Commsim.Cost.pp result.Apps.Similarity.cost;
    (match sketch with
    | None -> ()
    | Some sketch_size ->
        let (j, inter), cost =
          Apps.Sketch.exchange
            (Prng.Rng.with_label rng "sketch")
            ~sketch_size pair.Workload.Setgen.s pair.Workload.Setgen.t
        in
        Format.printf "bottom-%d sketch: jaccard ~= %.4f, |S cap T| ~= %.0f, cost %a@."
          sketch_size j inter Commsim.Cost.pp cost);
    0
  in
  Cmd.v
    (Cmd.info "similarity" ~doc:"Exact similarity statistics (optionally vs a min-wise sketch).")
    Term.(const run $ k_arg $ universe_bits_arg $ overlap_arg $ seed_arg $ sketch_arg)

(* ---------- flags and report plumbing shared by the campaign subcommands ---------- *)

(* Campaign knobs are optional: an absent flag falls back to the library
   configuration, [smoke] under --smoke and [default] otherwise. *)
let some_int names docv doc = Arg.(value & opt (some int) None & info names ~docv ~doc)
let override base = function Some v -> v | None -> base
let smoke_arg = Arg.(value & flag & info [ "smoke" ] ~doc:"Seconds-scale configuration.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Print the JSON report instead of the table.")

let campaign_seed_arg = some_int [ "seed" ] "SEED" "Root seed (default 2014)."
let campaign_trials_arg = some_int [ "trials" ] "N" "Trials per matrix cell."
let campaign_universe_arg = some_int [ "universe-bits" ] "B" "Universe size 2^B."
let attempts_arg = some_int [ "attempts" ] "A" "Resilient retry budget (faulted cells)."
let check_bits_arg = some_int [ "check-bits" ] "C" "Initial fingerprint width."

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry"; "telemetry-out" ] ~docv:"FILE"
        ~doc:"Write the fleet-telemetry JSONL stream (snapshots, rates, post-mortems) to $(docv).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~docv:"D"
        ~doc:
          "Engine worker domains (default: one per core).  Results are byte-identical for any \
           value; only wall-clock changes.")

(* The input-size knobs of the soak and chaos matrices. *)
type sizing = {
  smoke : bool;
  seed : int option;
  trials : int option;
  k : int option;
  universe_bits : int option;
  overlap : int option;
}

let sizing_term =
  let mk smoke seed trials k universe_bits overlap =
    { smoke; seed; trials; k; universe_bits; overlap }
  in
  Term.(
    const mk $ smoke_arg $ campaign_seed_arg $ campaign_trials_arg
    $ some_int [ "k"; "set-size" ] "K" "Input set size (overlap defaults to K/2)."
    $ campaign_universe_arg $ overlap_arg)

(* An explicit overlap wins; an explicit k alone plants k/2. *)
let sized_overlap s base =
  match (s.overlap, s.k) with Some o, _ -> o | None, Some k -> k / 2 | None, None -> base

(* The command that regenerates a report: every knob its configuration
   takes from a flag, with the value rendered as the subcommand parses it. *)
let reproduce sub ~smoke flags =
  String.concat " "
    (("dune exec bin/intersect_cli.exe --" :: sub :: (if smoke then [ "--smoke" ] else []))
    @ List.map (fun (flag, v) -> flag ^ " " ^ v) flags)

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun line ->
          Out_channel.output_string oc line;
          Out_channel.output_char oc '\n')
        lines);
  Printf.eprintf "wrote %s\n" path

let telemetry_sink = Option.map (fun path -> (path, Workload.Telemetry.create_sink ()))
let write_telemetry (path, sink) = write_lines path (Workload.Telemetry.jsonl sink)

(* The tail every campaign shares: write the telemetry stream, print the
   table (or with --json the report), write --out, and exit 1 iff the
   gate reported violations. *)
let finish ~json ~out ~telemetry ~summary report violations =
  Option.iter write_telemetry telemetry;
  let text = Stats.Json.to_string_pretty report in
  if json then print_endline text else print_string summary;
  Option.iter (fun path -> write_lines path [ text ]) out;
  List.iter prerr_endline violations;
  if violations = [] then 0 else 1

(* ---------- trace / profile: phase-attributed observability ---------- *)

let obsv_protocol_names =
  "trivial, full-exchange, one-round, basic, bucket, tree, tree-log-star, verified-tree, \
   resilient, session, star, tournament"

(* Run one seeded workload under a fresh collector + metrics registry.
   Returns the collected events alongside the exact execution cost. *)
let collect_with ~name ~r ~k ~universe_bits ~overlap ~players ~rng =
  let universe = 1 lsl universe_bits in
  let collector = Obsv.Trace.create () in
  let registry = Obsv.Metrics.create () in
  let two_party_pair () =
    Workload.Setgen.pair_with_overlap
      (Prng.Rng.with_label rng "workload")
      ~universe ~size_s:k ~size_t:k
      ~overlap:(Option.value overlap ~default:(k / 2))
  in
  let run () =
    match name with
    | "star" | "tournament" ->
        let core = Option.value overlap ~default:(k / 4) in
        let sets =
          Workload.Setgen.family_with_core
            (Prng.Rng.with_label rng "workload")
            ~universe ~players ~size:k ~core
        in
        let result, cost =
          if name = "star" then
            Multiparty.Star.run (Prng.Rng.with_label rng "star") ~universe ~k sets
          else Multiparty.Tournament.run (Prng.Rng.with_label rng "tournament") ~universe ~k sets
        in
        Ok (cost, Iset.cardinal result)
    | "resilient" ->
        let pair = two_party_pair () in
        let report =
          Resilient.run (Resilient.bucket_base ~k ()) ~plan:Commsim.Faults.clean
            (Prng.Rng.with_label rng "resilient")
            ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
        in
        List.iter
          (function
            | Resilient.Check_rejected -> prerr_endline "resilient: equality check rejected"
            | Resilient.Channel_lost d -> Printf.eprintf "resilient: channel lost: %s\n" d
            | Resilient.Party_crashed d -> Printf.eprintf "resilient: party crashed: %s\n" d)
          report.Resilient.failures;
        Ok (report.Resilient.cost, Iset.cardinal report.Resilient.result)
    | "session" ->
        (* One full session over a mildly dropping link: exercises the
           ladder (and its session/* spans) end to end. *)
        let pair = two_party_pair () in
        let plan =
          Commsim.Faults.uniform
            ~seed:(Prng.Rng.bits (Prng.Rng.with_label rng "session-plan") ~width:30)
            (Commsim.Faults.dropping 8e-2)
        in
        let cfg =
          {
            (Session.Machine.default ~k ~plan) with
            Session.Machine.universe_bits;
            seed = Prng.Rng.bits (Prng.Rng.with_label rng "session-seed") ~width:30;
          }
        in
        let report =
          Session.Machine.run cfg ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t
        in
        List.iter
          (fun (kind, detail) ->
            Printf.eprintf "session: attempt failed (%s): %s\n"
              (Session.Machine.kind_name kind) detail)
          report.Session.Machine.failures;
        let size =
          match Session.Machine.result_of report.Session.Machine.outcome with
          | Some result -> Iset.cardinal result
          | None -> 0
        in
        Ok (report.Session.Machine.ledger.Session.Machine.cost, size)
    | name -> begin
        match protocol_of_name name ~r ~k with
        | Error _ -> Error (`Msg ("unknown protocol (try: " ^ obsv_protocol_names ^ ")"))
        | Ok protocol ->
            let pair = two_party_pair () in
            let outcome =
              protocol.Protocol.run rng ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
            in
            Ok (outcome.Protocol.cost, Iset.cardinal outcome.Protocol.alice)
      end
  in
  match Obsv.Trace.with_collector collector (fun () -> Obsv.Metrics.with_registry registry run) with
  | Error e -> Error e
  | Ok (cost, size) -> Ok (collector, registry, cost, size)

let collect_run ~name ~r ~k ~universe_bits ~overlap ~players ~seed =
  collect_with ~name ~r ~k ~universe_bits ~overlap ~players
    ~rng:(Prng.Rng.with_label (Prng.Rng.of_int seed) "cli-obsv")

let obsv_protocol_arg =
  Arg.(
    value
    & opt string "bucket"
    & info [ "protocol" ] ~docv:"P" ~doc:("Protocol name (one of: " ^ obsv_protocol_names ^ ")."))

let obsv_r_arg =
  Arg.(value & opt int 3 & info [ "r"; "stages" ] ~docv:"R" ~doc:"Stage budget for tree.")

let obsv_players_arg =
  Arg.(value & opt int 8 & info [ "players" ] ~docv:"M" ~doc:"Players (star/tournament only).")

let obsv_k_arg =
  Arg.(value & opt int 64 & info [ "k"; "set-size" ] ~docv:"K" ~doc:"Set-size bound.")

let trace_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "format" ] ~docv:"F"
          ~doc:"chrome (trace_event JSON for chrome://tracing) or jsonl (one event per line).")
  in
  let run name r k universe_bits overlap players seed format =
    match collect_run ~name ~r ~k ~universe_bits ~overlap ~players ~seed with
    | Error (`Msg m) ->
        prerr_endline m;
        1
    | Ok (collector, _registry, _cost, _size) ->
        (match format with
        | `Chrome -> print_endline (Stats.Json.to_string_pretty (Obsv.Export.chrome_trace collector))
        | `Jsonl -> List.iter print_endline (Obsv.Export.jsonl collector));
        0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one seeded execution of a named protocol with phase tracing enabled and emit the \
          trace (Chrome trace_event JSON by default; load it in chrome://tracing or Perfetto).")
    Term.(
      const run $ obsv_protocol_arg $ obsv_r_arg $ obsv_k_arg $ universe_bits_arg $ overlap_arg
      $ obsv_players_arg $ seed_arg $ format_arg)

let profile_cmd =
  let profile_trials_arg =
    Arg.(
      value & opt int 1
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Seeded executions to aggregate (engine seed stream; per-trial costs, phase ledgers \
             and metrics registries are merged in trial order).")
  in
  let run name r k universe_bits overlap players seed json trials domains =
    if trials < 1 then begin
      prerr_endline "profile: --trials must be >= 1";
      2
    end
    else begin
      let stream = Engine.Seed_stream.create ~base:seed ~label:"cli-obsv" in
      let results =
        Engine.Pool.map ?domains ~trials (fun i ->
            collect_with ~name ~r ~k ~universe_bits ~overlap ~players
              ~rng:(Engine.Seed_stream.trial_rng stream (i + 1)))
      in
      match Array.to_list results with
      | Error (`Msg m) :: _ ->
          prerr_endline m;
          1
      | trial_results -> begin
          let oks =
            List.filter_map (function Ok r -> Some r | Error _ -> None) trial_results
          in
          let costs = List.map (fun (_, _, cost, _) -> cost) oks in
          let cost =
            List.fold_left Commsim.Cost.add_seq
              (Commsim.Cost.zero ~players:(Array.length (List.hd costs).Commsim.Cost.players))
              costs
          in
          let registry = Obsv.Metrics.create () in
          List.iter (fun (_, reg, _, _) -> Obsv.Metrics.merge_into ~into:registry reg) oks;
          let phases =
            Obsv.Export.merge_phases
              (List.map (fun (collector, _, _, _) -> Obsv.Export.phases collector) oks)
          in
          let size = match oks with (_, _, _, s) :: _ -> s | [] -> 0 in
          let phase_bits =
            List.fold_left (fun acc p -> acc + p.Obsv.Export.bits) 0 phases
          in
          let exact = phase_bits = cost.Commsim.Cost.total_bits in
          if json then
            print_endline
              (Stats.Json.to_string_pretty
                 (Stats.Json.Obj
                    [
                      ("protocol", Stats.Json.Str name);
                      ("k", Stats.Json.Int k);
                      ("seed", Stats.Json.Int seed);
                      ("trials", Stats.Json.Int trials);
                      ("total_bits", Stats.Json.Int cost.Commsim.Cost.total_bits);
                      ("messages", Stats.Json.Int cost.Commsim.Cost.messages);
                      ("rounds", Stats.Json.Int cost.Commsim.Cost.rounds);
                      ("result_size", Stats.Json.Int size);
                      ("phase_bits", Stats.Json.Int phase_bits);
                      ("phase_bits_exact", Stats.Json.Bool exact);
                      ("phases", Obsv.Export.phases_json_of phases);
                      ("metrics", Obsv.Metrics.to_json registry);
                    ]))
          else begin
            Printf.printf "profile: protocol=%s k=%d universe=2^%d seed=%d trials=%d\n" name k
              universe_bits seed trials;
            Format.printf "%a; |result| = %d@." Commsim.Cost.pp_breakdown cost size;
            print_newline ();
            Stats.Table.print (Obsv.Export.phase_table_of phases);
            print_newline ();
            let per_player =
              Stats.Table.create ~title:"per-player" ~columns:Commsim.Cost.breakdown_columns
            in
            List.iter (Stats.Table.add_row per_player) (Commsim.Cost.breakdown_rows cost);
            Stats.Table.print per_player;
            print_newline ();
            print_endline "metrics:";
            print_endline (Stats.Json.to_string_pretty (Obsv.Metrics.to_json registry));
            (match Obsv.Metrics.sketches_list registry with
            | [] -> ()
            | sketches ->
                print_newline ();
                let qtable =
                  Stats.Table.create ~title:"sketch quantiles (bucket upper bounds)"
                    ~columns:[ "sketch"; "count"; "p50"; "p90"; "p99"; "max" ]
                in
                List.iter
                  (fun (sname, sk) ->
                    let module S = Obsv.Sketch in
                    Stats.Table.add_row qtable
                      [
                        sname;
                        string_of_int (S.count sk);
                        string_of_int (S.p50 sk);
                        string_of_int (S.p90 sk);
                        string_of_int (S.p99 sk);
                        (match S.max_value sk with Some v -> string_of_int v | None -> "-");
                      ])
                  sketches;
                Stats.Table.print qtable);
            print_newline ();
            Printf.printf "phase bits %d %s Cost.total_bits %d\n" phase_bits
              (if exact then "=" else "<>")
              cost.Commsim.Cost.total_bits
          end;
          if exact then 0 else 1
        end
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run seeded executions of a named protocol on the trial engine and print the merged \
          per-phase budget breakdown (bits attributed to the sender's innermost span), the \
          per-player cost table, and the merged metrics registry.  Exits non-zero if the \
          per-phase bits fail to sum to the exact Cost.total_bits.")
    Term.(
      const run $ obsv_protocol_arg $ obsv_r_arg $ obsv_k_arg $ universe_bits_arg $ overlap_arg
      $ obsv_players_arg $ seed_arg $ json_arg $ profile_trials_arg $ domains_arg)

(* ---------- campaigns: soak, chaos, health, top, telemetry, sweep, regress, conform ---------- *)

let soak_cmd =
  let run sizing attempts check_bits json out telemetry domains =
    let module S = Workload.Soak in
    let base = if sizing.smoke then S.smoke else S.default in
    let config =
      {
        base with
        S.seed = override base.S.seed sizing.seed;
        trials = override base.S.trials sizing.trials;
        k = override base.S.k sizing.k;
        universe_bits = override base.S.universe_bits sizing.universe_bits;
        overlap = sized_overlap sizing base.S.overlap;
        budget_attempts = override base.S.budget_attempts attempts;
        check_bits = override base.S.check_bits check_bits;
      }
    in
    let reproduce =
      reproduce "soak" ~smoke:sizing.smoke
        [
          ("--seed", string_of_int config.S.seed);
          ("--trials", string_of_int config.S.trials);
          ("-k", string_of_int config.S.k);
          ("--universe-bits", string_of_int config.S.universe_bits);
          ("--overlap", string_of_int config.S.overlap);
          ("--attempts", string_of_int config.S.budget_attempts);
          ("--check-bits", string_of_int config.S.check_bits);
        ]
    in
    let telemetry = telemetry_sink telemetry in
    let report = S.run ?domains ?sink:(Option.map snd telemetry) config in
    let violations =
      List.filter_map
        (fun c ->
          if c.S.within_bound then None
          else
            Some
              (Printf.sprintf "soak: %s/%s exceeded its error bound%s" c.S.protocol c.S.plan
                 (match c.S.first_failure with
                 | None -> ""
                 | Some d -> Printf.sprintf " (first carried failure: %s)" d)))
        report.S.cells
    in
    finish ~json ~out ~telemetry ~summary:(S.summary report) (S.to_json ~reproduce report)
      violations
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Soak the resilient wrapper against adversarial channels: seeded trials per (protocol x \
          fault plan) cell.  Exits non-zero if any cell exceeds its error bound.")
    Term.(
      const run $ sizing_term $ attempts_arg $ check_bits_arg $ json_arg $ out_arg $ telemetry_arg
      $ domains_arg)

let chaos_config sizing =
  let module C = Workload.Chaos in
  let base = if sizing.smoke then C.smoke else C.default in
  {
    base with
    C.seed = override base.C.seed sizing.seed;
    trials = override base.C.trials sizing.trials;
    k = override base.C.k sizing.k;
    universe_bits = override base.C.universe_bits sizing.universe_bits;
    overlap = sized_overlap sizing base.C.overlap;
  }

let chaos_violations report =
  List.map
    (( ^ ) "chaos invariant violated: ")
    (Workload.Chaos.invariant_violations report.Workload.Chaos.cells)

let chaos_cmd =
  let deadline_arg = some_int [ "deadline" ] "BITS" "Session event-time budget." in
  let rung_attempts_arg = some_int [ "rung-attempts" ] "A" "Attempts per ladder rung." in
  let run sizing deadline rung_attempts check_bits json out telemetry domains =
    let module C = Workload.Chaos in
    let base = chaos_config sizing in
    let config =
      {
        base with
        C.deadline_bits = override base.C.deadline_bits deadline;
        rung_attempts = override base.C.rung_attempts rung_attempts;
        check_bits0 = override base.C.check_bits0 check_bits;
      }
    in
    let reproduce =
      reproduce "chaos" ~smoke:sizing.smoke
        [
          ("--seed", string_of_int config.C.seed);
          ("--trials", string_of_int config.C.trials);
          ("-k", string_of_int config.C.k);
          ("--universe-bits", string_of_int config.C.universe_bits);
          ("--overlap", string_of_int config.C.overlap);
          ("--deadline", string_of_int config.C.deadline_bits);
          ("--rung-attempts", string_of_int config.C.rung_attempts);
          ("--check-bits", string_of_int config.C.check_bits0);
        ]
    in
    let telemetry = telemetry_sink telemetry in
    let report = C.run ?domains ?sink:(Option.map snd telemetry) config in
    finish ~json ~out ~telemetry ~summary:(C.summary report) (C.to_json ~reproduce report)
      (chaos_violations report)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run seeded chaos campaigns (corruption storms, stall bursts, flapping links, \
          mid-session crash/resume) against the session robustness layer.  Exits non-zero if \
          any cell violates the chaos invariant: outcomes partition the trials, zero wrong \
          intersections, every exercised resume byte-identical.  --telemetry also enables \
          per-session flight recorders.")
    Term.(
      const run $ sizing_term $ deadline_arg $ rung_attempts_arg $ check_bits_arg $ json_arg
      $ out_arg $ telemetry_arg $ domains_arg)

(* ---------- health / top: fleet telemetry over a chaos campaign ---------- *)

(* Both fleet views drive the chaos matrix with a telemetry sink.  The
   deadline-squeeze campaign is excluded by default: it exists to force
   failed-safe outcomes, which would make every default health check red.
   --all-campaigns puts it back for deliberate SLO-violation drills. *)
let fleet_config sizing ~all_campaigns =
  let config = chaos_config sizing in
  if all_campaigns then config
  else
    {
      config with
      Workload.Chaos.campaigns =
        List.filter (fun (name, _) -> name <> "deadline-squeeze") config.Workload.Chaos.campaigns;
    }

let all_campaigns_arg =
  Arg.(
    value & flag
    & info [ "all-campaigns" ]
        ~doc:
          "Include the deadline-squeeze campaign (deliberately drives failed-safe sessions, so \
           expect a red failed-safe-rate verdict).")

let slos_term =
  let some_pm names doc = Arg.(value & opt (some int) None & info names ~docv:"PM" ~doc) in
  let mk failed degraded burn =
    let d = Obsv.Health.default_slos in
    {
      Obsv.Health.max_failed_safe_per_mille =
        Option.value failed ~default:d.Obsv.Health.max_failed_safe_per_mille;
      max_degraded_per_mille =
        Option.value degraded ~default:d.Obsv.Health.max_degraded_per_mille;
      max_p99_burn_per_mille = Option.value burn ~default:d.Obsv.Health.max_p99_burn_per_mille;
    }
  in
  Term.(
    const mk
    $ some_pm [ "max-failed-safe" ] "Failed-safe rate SLO in per-mille (default 50)."
    $ some_pm [ "max-degraded" ] "Degraded (fallback) rate SLO in per-mille (default 250)."
    $ some_pm [ "max-p99-burn" ]
        "p99 deadline-burn SLO in per-mille of the session deadline (default 900).")

let health_verdict ~violations (h : Obsv.Health.report) =
  List.iter prerr_endline violations;
  List.iter
    (fun (v : Obsv.Health.verdict) ->
      if not v.Obsv.Health.ok then
        Printf.eprintf "health: SLO %s violated: %s\n" v.Obsv.Health.slo v.Obsv.Health.detail)
    h.Obsv.Health.verdicts;
  if h.Obsv.Health.ok && violations = [] then 0 else 1

let health_cmd =
  let run sizing json all_campaigns slos telemetry_out domains =
    let config = fleet_config sizing ~all_campaigns in
    let sink = Workload.Telemetry.create_sink () in
    let report = Workload.Chaos.run ?domains ~sink config in
    let violations = chaos_violations report in
    Option.iter (fun path -> write_telemetry (path, sink)) telemetry_out;
    match Workload.Telemetry.health ~slos sink with
    | None ->
        prerr_endline "health: campaign recorded no snapshots";
        1
    | Some h ->
        if json then
          print_endline
            (Stats.Json.to_string_pretty
               (Stats.Json.Obj
                  [
                    ("health", Obsv.Health.to_json h);
                    ("slos", Obsv.Health.slos_json slos);
                  ]))
        else begin
          Stats.Table.print (Obsv.Health.table h);
          Printf.printf "fleet: %d sessions over %d cells; verdict %s\n"
            h.Obsv.Health.sessions
            (List.length report.Workload.Chaos.cells)
            (if h.Obsv.Health.ok && violations = [] then "HEALTHY" else "UNHEALTHY")
        end;
        health_verdict ~violations h
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run the chaos campaign matrix with fleet telemetry enabled and score the final \
          snapshot against the declared SLOs (wrong-answer rate is hard-wired to zero; \
          failed-safe / degraded / p99-deadline-burn rates take per-mille thresholds).  Exits \
          non-zero on any SLO or chaos-invariant violation.")
    Term.(
      const run $ sizing_term $ json_arg $ all_campaigns_arg $ slos_term $ telemetry_arg
      $ domains_arg)

let top_cmd =
  let no_ansi_arg =
    Arg.(
      value & flag
      & info [ "no-ansi" ]
          ~doc:"Append frames instead of redrawing in place (for logs and dumb terminals).")
  in
  let render_frame ~no_ansi ~idx ~total ~protocol ~campaign_name sink (cell : Workload.Chaos.cell)
      =
    if not no_ansi then print_string "\027[H\027[2J";
    Printf.printf "intersect fleet top — cell %d/%d: %s / %s\n" idx total protocol campaign_name;
    (match Workload.Telemetry.last_snapshot sink with
    | None -> ()
    | Some snap ->
        let c name = Obsv.Snapshot.counter snap name in
        Printf.printf "fleet   sessions %-6d completed %-6d degraded %-6d failed_safe %-6d wrong %d\n"
          (c Obsv.Health.k_sessions)
          (c (Obsv.Health.k_outcome "completed"))
          (c (Obsv.Health.k_outcome "degraded"))
          (c (Obsv.Health.k_outcome "failed_safe"))
          (c Obsv.Health.k_wrong);
        Printf.printf "        attempts %-6d resumes %-7d post-mortems %d\n"
          (c Obsv.Health.k_attempts) (c Obsv.Health.k_resumes)
          (List.length (Workload.Telemetry.postmortems sink));
        let sketch_line label name =
          match Obsv.Snapshot.sketch snap name with
          | None -> ()
          | Some s ->
              Printf.printf "%s p50 %-7d p90 %-7d p99 %-7d max %d\n" label
                s.Obsv.Snapshot.s_p50 s.Obsv.Snapshot.s_p90 s.Obsv.Snapshot.s_p99
                s.Obsv.Snapshot.s_max
        in
        sketch_line "spent bits   " Obsv.Health.k_spent_bits;
        sketch_line "backoff ticks" Obsv.Health.k_backoff_ticks);
    Printf.printf "cell    %d trials: %d completed, %d degraded, %d failed-safe, %d resumed\n%!"
      cell.Workload.Chaos.trials cell.Workload.Chaos.completed cell.Workload.Chaos.degraded
      cell.Workload.Chaos.failed_safe cell.Workload.Chaos.resumed
  in
  let run sizing all_campaigns no_ansi slos telemetry_out domains =
    let config = fleet_config sizing ~all_campaigns in
    let plan = Workload.Chaos.cells_of config in
    let total = List.length plan in
    let sink = Workload.Telemetry.create_sink () in
    let cells =
      List.mapi
        (fun i (protocol, campaign_name, camp) ->
          let cell =
            Workload.Chaos.run_cell ?domains ~sink config camp ~protocol ~campaign_name
          in
          render_frame ~no_ansi ~idx:(i + 1) ~total ~protocol ~campaign_name sink cell;
          cell)
        plan
    in
    let report = { Workload.Chaos.config; cells } in
    let violations = chaos_violations report in
    Option.iter (fun path -> write_telemetry (path, sink)) telemetry_out;
    match Workload.Telemetry.health ~slos sink with
    | None ->
        prerr_endline "top: campaign recorded no snapshots";
        1
    | Some h ->
        print_newline ();
        Stats.Table.print (Obsv.Health.table h);
        health_verdict ~violations h
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live top-style view of a chaos campaign: runs the matrix cell by cell through the \
          fleet-telemetry sink and redraws a frame per cell (sessions, outcome taxonomy, \
          spend-sketch percentiles), finishing with the SLO health table.  Frames are \
          event-time snapshots, so the stream is deterministic for a fixed seed.")
    Term.(
      const run $ sizing_term $ all_campaigns_arg $ no_ansi_arg $ slos_term $ telemetry_arg
      $ domains_arg)

let telemetry_cmd =
  let sessions_arg = some_int [ "sessions" ] "N" "Sessions per pass." in
  let max_ratio_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-ratio" ] ~docv:"R"
          ~doc:"Fail when the telemetry-on/off wall-clock ratio exceeds R.")
  in
  let run smoke seed k universe_bits sessions json out max_ratio =
    let module T = Workload.Telemetry in
    let base = if smoke then T.overhead_smoke else T.overhead_default in
    let config =
      {
        T.seed = override base.T.seed seed;
        k = override base.T.k k;
        universe_bits = override base.T.universe_bits universe_bits;
        sessions = override base.T.sessions sessions;
      }
    in
    let reproduce =
      reproduce "telemetry" ~smoke
        [
          ("--seed", string_of_int config.T.seed);
          ("-k", string_of_int config.T.k);
          ("--universe-bits", string_of_int config.T.universe_bits);
          ("--sessions", string_of_int config.T.sessions);
        ]
    in
    let report = T.run_overhead config in
    finish ~json ~out ~telemetry:None
      ~summary:(T.overhead_summary report ^ "\n")
      (T.overhead_json ~reproduce report)
      (T.overhead_violations ?max_ratio report)
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Measure the hot-path overhead of the fleet-telemetry layer: the same seeded \
          clean-link sessions run with telemetry off, then on, and the deterministic session \
          fields must be identical between the passes.  With --max-ratio, exits non-zero when \
          the on/off wall-clock ratio exceeds the bound.")
    Term.(
      const run $ smoke_arg $ campaign_seed_arg
      $ some_int [ "k" ] "K" "Input set size per session."
      $ campaign_universe_arg $ sessions_arg $ json_arg $ out_arg $ max_ratio_arg)

let sweep_cmd =
  let run smoke seed trials universe_bits attempts check_bits json out telemetry domains =
    let module W = Workload.Sweep in
    let base = if smoke then W.smoke else W.default in
    let config =
      {
        base with
        W.seed = override base.W.seed seed;
        trials_per_cell = override base.W.trials_per_cell trials;
        universe_bits = override base.W.universe_bits universe_bits;
        budget_attempts = override base.W.budget_attempts attempts;
        check_bits = override base.W.check_bits check_bits;
      }
    in
    let reproduce =
      reproduce "sweep" ~smoke
        [
          ("--seed", string_of_int config.W.seed);
          ("--trials", string_of_int config.W.trials_per_cell);
          ("--universe-bits", string_of_int config.W.universe_bits);
          ("--attempts", string_of_int config.W.budget_attempts);
          ("--check-bits", string_of_int config.W.check_bits);
        ]
    in
    let telemetry = telemetry_sink telemetry in
    match W.run ?domains ?sink:(Option.map snd telemetry) config with
    | exception Invalid_argument m ->
        prerr_endline ("sweep: " ^ m);
        2
    | report ->
        let violations =
          List.filter_map
            (fun (c : W.cell) ->
              if c.W.pass then None
              else
                Some
                  (Printf.sprintf "sweep: %s/%s k=%d violated its envelope (%d/%d failures)"
                     c.W.protocol
                     (Option.value c.W.plan ~default:"clean")
                     c.W.k c.W.failures c.W.trials))
            report.W.cells
        in
        finish ~json ~out ~telemetry ~summary:(W.summary report) (W.to_json ~reproduce report)
          violations
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Mega-sweep conformance matrix: stream 10^6+ seeded trials over protocol x k x \
          fault-plan cells through the trial engine, gating each cell's failure count against \
          the paper's 1/poly(k) envelope (Wilson 95% bounds) or the resilient wrapper's \
          rare-event bound.  Byte-identical report at every --domains value.  Exits non-zero \
          on any envelope violation.")
    Term.(
      const run $ smoke_arg $ campaign_seed_arg $ campaign_trials_arg $ campaign_universe_arg
      $ attempts_arg $ check_bits_arg $ json_arg $ out_arg $ telemetry_arg $ domains_arg)

let ks_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "k"; "set-size" ] ~docv:"K,K,..." ~doc:"Set-size sweep (comma-separated).")

let protocols_arg names =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "protocols" ] ~docv:"P,P,..."
        ~doc:("Comma-separated subset (default: all of " ^ String.concat ", " names ^ ")."))

let bench_regress_cmd =
  let deterministic_arg =
    Arg.(
      value & flag
      & info [ "deterministic-json" ]
          ~doc:
            "Print only the seeded fields (bits, messages, rounds) as JSON; two runs of the \
             same config must be byte-identical.")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare against a committed BENCH_hotpath.json: deterministic fields must match \
             exactly; timings within tolerance.  Exit 1 on violation.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 0.5
      & info [ "tolerance" ] ~docv:"F"
          ~doc:"Allowed fractional timing regression vs the baseline (0.5 allows 1.5x).")
  in
  let run smoke json deterministic out baseline tolerance seed trials ks protocols =
    let module G = Workload.Regress in
    let base = if smoke then G.smoke else G.default in
    let config =
      {
        base with
        G.seed = override base.G.seed seed;
        trials = override base.G.trials trials;
        ks = override base.G.ks ks;
        protocols = override base.G.protocols protocols;
      }
    in
    match G.run config with
    | exception Invalid_argument m ->
        prerr_endline ("bench-regress: " ^ m);
        2
    | report -> (
        if deterministic then
          print_endline (Stats.Json.to_string_pretty (G.deterministic_json report))
        else if json then print_endline (Stats.Json.to_string_pretty (G.to_json report))
        else print_string (G.summary report);
        Option.iter
          (fun path -> write_lines path [ Stats.Json.to_string_pretty (G.to_json report) ])
          out;
        match baseline with
        | None -> 0
        | Some path -> (
            let contents = In_channel.with_open_text path In_channel.input_all in
            match Result.bind (Stats.Json.of_string contents) G.of_json with
            | Error e ->
                Printf.eprintf "bench-regress: %s: %s\n" path e;
                2
            | Ok baseline -> (
                match G.compare_baseline ~tolerance report baseline with
                | compared, [] ->
                    Printf.eprintf
                      "baseline check: %d cell(s) compared, all within tolerance %.2f\n" compared
                      tolerance;
                    0
                | compared, violations ->
                    Printf.eprintf "baseline check: %d cell(s) compared, %d violation(s):\n"
                      compared (List.length violations);
                    List.iter
                      (fun v -> Printf.eprintf "  %s\n" (G.violation_message v))
                      violations;
                    1)))
  in
  Cmd.v
    (Cmd.info "bench-regress"
       ~doc:
         "Hot-path performance regression bench: seeded end-to-end runs of every registered \
          protocol measuring ns/run and allocation bytes/run, with exact (deterministic) bit, \
          message and round counts.  --smoke runs k = 64 only; --out writes the \
          BENCH_hotpath.json shape.  With --baseline, enforces exact transcript fields and \
          tolerance-bounded timings against a committed BENCH_hotpath.json.")
    Term.(
      const run $ smoke_arg $ json_arg $ deterministic_arg $ out_arg $ baseline_arg
      $ tolerance_arg $ campaign_seed_arg $ campaign_trials_arg $ ks_arg
      $ protocols_arg Workload.Regress.protocol_names)

let conform_cmd =
  let run smoke json trials seed ks protocols domains =
    let module F = Workload.Conform in
    let base = if smoke then F.smoke else F.default in
    let config =
      {
        base with
        F.seed = override base.F.seed seed;
        trials = override base.F.trials trials;
        ks = override base.F.ks ks;
        protocols = override base.F.protocols protocols;
      }
    in
    match F.run ?domains config with
    | exception Invalid_argument m ->
        prerr_endline ("conform: " ^ m);
        2
    | report ->
        let reproduce =
          reproduce "conform" ~smoke
            [
              ("--seed", string_of_int config.F.seed);
              ("--trials", string_of_int config.F.trials);
              ("-k", String.concat "," (List.map string_of_int config.F.ks));
              ("--protocols", String.concat "," config.F.protocols);
            ]
        in
        if json then print_endline (Stats.Json.to_string_pretty (F.to_json ~reproduce report))
        else print_string (F.summary report);
        if report.F.pass then 0 else 1
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Theorem-conformance tier: run seeded trial sweeps on the engine and assert every \
          protocol stays inside its paper envelope (rounds budget per trial, constant-factor \
          bits envelope on the mean, Wilson-bounded error rate).  --smoke checks k = 16 at 25 \
          trials.  Exits non-zero on any envelope violation.")
    Term.(
      const run $ smoke_arg $ json_arg $ campaign_trials_arg $ campaign_seed_arg $ ks_arg
      $ protocols_arg Workload.Conform.entry_names $ domains_arg)

(* JSON validation over stdin: the input must parse as one JSON value
   followed only by whitespace, and with a MODE it must also pass that
   schema from the shared [Workload.Schemas] catalogue — the checks the
   experiment registry runs inside [experiments verify]. *)
let check_cmd =
  let mode_arg =
    Arg.(
      value
      & pos 0 (some (enum (List.map (fun m -> (m, m)) Workload.Schemas.modes))) None
      & info [] ~docv:"MODE"
          ~doc:("Schema mode, one of: " ^ String.concat ", " Workload.Schemas.modes ^ "."))
  in
  let run mode =
    let input = In_channel.input_all In_channel.stdin in
    let result =
      Result.bind (Stats.Json.of_string input) (fun doc ->
          match mode with None -> Ok () | Some mode -> Workload.Schemas.check ~mode doc)
    in
    match result with
    | Ok () -> 0
    | Error msg ->
        prerr_endline ("check: " ^ msg);
        1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate JSON on stdin (RFC 8259: one value, then only whitespace), and with a MODE \
          against that artifact's schema.  Exits 1 on invalid input.")
    Term.(const run $ mode_arg)

(* The hypothesis-driven experiment registry (experiments/NNN-slug.md;
   see experiments/README.md).  [verify] receives the group's own
   subcommand-name list so a renamed subcommand invalidates every entry
   whose reproduce/smoke command still quotes the old name. *)
let experiments_cmd ~cli_subcommands =
  let module R = Workload.Registry in
  let root_arg =
    Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc:"Repository root.")
  in
  let print_violations (violations : R.violation list) =
    List.iter
      (fun (v : R.violation) ->
        Printf.eprintf "experiments: %s: %s\n"
          (Option.value v.R.file ~default:"(registry)")
          v.R.what)
      violations
  in
  let load_checked root =
    let registry, violations = R.load ~root in
    print_violations violations;
    (registry, violations = [])
  in
  let list_cmd =
    let run root =
      let registry, ok = load_checked root in
      Stats.Table.print (R.table registry);
      let draft, running, complete, superseded = R.census registry in
      Printf.printf "%d entries: %d draft, %d running, %d complete, %d superseded\n"
        (List.length registry.R.entries) draft running complete superseded;
      if ok then 0 else 1
    in
    Cmd.v
      (Cmd.info "list" ~doc:"Status table of every registered experiment.")
      Term.(const run $ root_arg)
  in
  let show_cmd =
    let id_arg =
      Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Experiment id.")
    in
    let run root id =
      let registry, _ = R.load ~root in
      match List.find_opt (fun (e : R.entry) -> e.R.id = id) registry.R.entries with
      | None ->
          Printf.eprintf "experiments: no entry with id %d\n" id;
          2
      | Some e ->
          print_string (R.front_matter_of e);
          print_string e.R.body;
          print_newline ();
          0
    in
    Cmd.v
      (Cmd.info "show" ~doc:"Print one experiment (canonical frontmatter + body).")
      Term.(const run $ root_arg $ id_arg)
  in
  let run_smoke ~what command =
    Printf.eprintf "experiments: regen %s: %s\n" what command;
    flush stderr;
    Sys.command command
  in
  let capture_run command path =
    Sys.command (Printf.sprintf "%s > %s" command (Filename.quote path))
  in
  let regen_smoke registry =
    List.concat_map
      (fun (command, mode, ids) ->
        let what =
          Printf.sprintf "[%s]" (String.concat "," (List.map (Printf.sprintf "%03d") ids))
        in
        match mode with
        | R.Gate | R.No_regen ->
            if run_smoke ~what command = 0 then []
            else [ { R.file = None; what = Printf.sprintf "regen %s failed: %s" what command } ]
        | R.Diff ->
            let a = Filename.temp_file "regen" ".a" and b = Filename.temp_file "regen" ".b" in
            Fun.protect
              ~finally:(fun () ->
                Sys.remove a;
                Sys.remove b)
              (fun () ->
                Printf.eprintf "experiments: regen %s (twice, diffed): %s\n" what command;
                flush stderr;
                if capture_run command a <> 0 || capture_run command b <> 0 then
                  [ { R.file = None; what = Printf.sprintf "regen %s failed: %s" what command } ]
                else
                  let read p = In_channel.with_open_bin p In_channel.input_all in
                  if read a = read b then []
                  else
                    [
                      {
                        R.file = None;
                        what =
                          Printf.sprintf "regen %s not deterministic (two runs differ): %s" what
                            command;
                      };
                    ]))
      (R.regen_plan registry)
  in
  let verify_cmd =
    let regen_arg =
      Arg.(
        value & flag
        & info [ "regen-smoke" ]
            ~doc:
              "Re-execute every Complete entry's smoke command (deduplicated) and enforce its \
               regen mode: exit 0 for gate, byte-identical stdout across two runs for diff.")
    in
    let run root regen =
      let registry, violations = R.load ~root in
      print_violations violations;
      let more = R.verify ~env:(R.repo_env ~root) ~cli_subcommands registry in
      print_violations more;
      let regen_violations = if regen then regen_smoke registry else [] in
      print_violations regen_violations;
      let all = violations @ more @ regen_violations in
      if all = [] then begin
        let _, _, complete, _ = R.census registry in
        Printf.printf "experiments: %d entries verified (%d complete)%s\n"
          (List.length registry.R.entries)
          complete
          (if regen then ", regen smoke green" else "");
        0
      end
      else begin
        Printf.eprintf "experiments: %d violation(s)\n" (List.length all);
        1
      end
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Machine-check the registry: dense ids, live reproduce commands, existing \
            schema-valid artifacts, resolving cross-links.  Exits non-zero on any violation.")
      Term.(const run $ root_arg $ regen_arg)
  in
  let export_cmd =
    let run root =
      let registry, ok = load_checked root in
      if not ok then 1
      else begin
        print_string (R.export registry);
        0
      end
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Print the experiments.json index (byte-identical across runs; validated by \
            check experiments).")
      Term.(const run $ root_arg)
  in
  Cmd.group
    (Cmd.info "experiments"
       ~doc:
         "The hypothesis-driven experiment registry over experiments/NNN-slug.md (lifecycle \
          Draft | Running | Complete | Superseded; see experiments/README.md).")
    [ list_cmd; show_cmd; verify_cmd; export_cmd ]


let () =
  let doc = "Set-intersection communication protocols (PODC'14 reproduction)." in
  let base =
    [
      two_cmd;
      multi_cmd;
      disj_cmd;
      similarity_cmd;
      soak_cmd;
      chaos_cmd;
      health_cmd;
      top_cmd;
      telemetry_cmd;
      bench_regress_cmd;
      conform_cmd;
      sweep_cmd;
      trace_cmd;
      profile_cmd;
      check_cmd;
    ]
  in
  let cli_subcommands = List.sort compare ("experiments" :: List.map Cmd.name base) in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "intersect_cli" ~doc) (base @ [ experiments_cmd ~cli_subcommands ])))
