(* The traced run: per-layer numbers measured from outside the program.

   Three sources, none of which changes library code:
   - a closed loop of untraced trials, read through [Gc] and the engine's
     busy time;
   - a traced pass over the pool, where each party's transport is wrapped
     so that the benchmark's clock splits the trial into party compute
     and simulator time, and where the program's own counters
     ([Obsv.Metrics]) and per-phase bits ([Obsv.Trace]) are collected;
   - replays of each layer's public functions on the workload's real
     inputs and shapes, timed with [Clock.per_call].

   The ledger then multiplies each layer's ns/call by its per-trial call
   count where that count is known from the counters and the protocol's
   structure, and divides by the party compute time. *)

open Intersect

let universe = Trials.universe
let now = Clock.now_ns

(* --- party-time wrapper ---------------------------------------------- *)

type party_clock = { mutable busy : int; mutable last : int }

(* [timed clock party] runs [party] over a transport that stops the
   party's clock for the length of every send and recv: the simulator may
   switch to the peer inside either, so what remains is this party's own
   compute. *)
let timed clock party chan =
  let pause () = clock.busy <- clock.busy + (now () - clock.last) in
  let resume () = clock.last <- now () in
  let wrapped =
    Commsim.Transport.make
      ~send:(fun payload ->
        pause ();
        Commsim.Transport.send chan payload;
        resume ())
      ~recv:(fun () ->
        pause ();
        let payload = Commsim.Transport.recv chan in
        resume ();
        payload)
  in
  resume ();
  let result = party wrapped in
  pause ();
  result

type role = [ `Alice | `Bob ]

(* The party functions behind [Regress.protocol_of], for the protocols
   that expose one.  Each reproduces its [Protocol.run] exactly; the
   traced pass checks that by comparing costs. *)
let party_fn ~k = function
  | "bucket" ->
      Some (fun (role : role) rng chan mine -> Bucket_protocol.run_party role rng ~universe ~k chan mine)
  | "tree-r2" -> Some (fun role rng chan mine -> Tree_protocol.run_party role rng ~universe ~r:2 ~k chan mine)
  | "tree-r3" -> Some (fun role rng chan mine -> Tree_protocol.run_party role rng ~universe ~r:3 ~k chan mine)
  | "tree-log-star" ->
      let r = max 1 (Iterated_log.log_star k) in
      Some (fun role rng chan mine -> Tree_protocol.run_party role rng ~universe ~r ~k chan mine)
  | _ -> None

let tree_r ~k = function
  | "tree-r2" -> Some 2
  | "tree-r3" -> Some 3
  | "tree-log-star" -> Some (max 1 (Iterated_log.log_star k))
  | _ -> None

(* --- the traced pass -------------------------------------------------- *)

(* Phases the workloads' protocols open; anything else lands in "other". *)
let phases =
  Obsv.Phases.
    [
      unattributed;
      bi_sizes;
      bi_tags;
      bucket_assign;
      bucket_eq;
      eq_exact;
      eq_joint;
      eq_tags;
      orh_tags;
      tree_eq;
      tree_fallback;
      tree_rerun;
      trivial_offer;
      trivial_reply;
      verified_attempt;
      verified_check;
    ]

let phase_metric name =
  if name = Obsv.Phases.unattributed then "unattributed"
  else String.map (fun c -> if c = '/' then '.' else c) name

let phase_keys = List.map phase_metric phases @ [ "other" ]

type traced = {
  entry : Trials.entry;
  wall_ns : int;
  party_ns : int option;  (** both parties' compute, when the protocol has a party function *)
  counters : (string * int) list;
  instances : int;
  phase_bits : (string * int) list;
  phase_messages : (string * int) list;
}

let counter_names =
  [ "eq/tag_rounds"; "eq/joint_checks"; "eq/exact_fallbacks"; "bucket/retries"; "tree/failed_leaves" ]

let phase_tally collector =
  let bits = Hashtbl.create 16 and msgs = Hashtbl.create 16 in
  let add name b m =
    let key = if List.mem name phases then phase_metric name else "other" in
    let get t = Option.value ~default:0 (Hashtbl.find_opt t key) in
    Hashtbl.replace bits key (get bits + b);
    Hashtbl.replace msgs key (get msgs + m)
  in
  List.iter (fun (s : Obsv.Trace.span) -> add s.name s.bits s.messages) (Obsv.Trace.spans collector);
  List.iter
    (fun (m : Obsv.Trace.message) -> if m.span = None then add Obsv.Phases.unattributed m.bits 1)
    (Obsv.Trace.messages collector);
  let read t = List.map (fun key -> (key, Option.value ~default:0 (Hashtbl.find_opt t key))) phase_keys in
  (read bits, read msgs)

exception Mismatch of string

let traced_trial (pool : Trials.pool) (e : Trials.entry) =
  let k = pool.spec.k in
  let registry = Obsv.Metrics.create () and collector = Obsv.Trace.create () in
  let rng = Trials.run_rng pool e in
  let ca = { busy = 0; last = 0 } and cb = { busy = 0; last = 0 } in
  let t0 = now () in
  let (alice, bob), cost, split =
    Obsv.Metrics.with_registry registry (fun () ->
        Obsv.Trace.with_collector collector (fun () ->
            match party_fn ~k e.proto with
            | Some party ->
                Protocol.validate_inputs ~universe e.s e.t;
                let outputs, cost =
                  Commsim.Two_party.run
                    ~alice:(timed ca (fun chan -> party `Alice rng chan e.s))
                    ~bob:(timed cb (fun chan -> party `Bob rng chan e.t))
                in
                (outputs, cost, true)
            | None ->
                let out = e.protocol.Protocol.run rng ~universe e.s e.t in
                ((out.alice, out.bob), out.cost, false)))
  in
  let wall_ns = now () - t0 in
  if cost <> e.cost then
    raise
      (Mismatch
         (Format.asprintf "trial %d (%s): traced cost %a differs from untraced cost %a" e.index e.proto
            Commsim.Cost.pp cost Commsim.Cost.pp e.cost));
  let expected = Iset.inter e.s e.t in
  if (Iset.equal alice expected && Iset.equal bob expected) <> e.exact then
    raise (Mismatch (Printf.sprintf "trial %d (%s): traced outputs differ from untraced" e.index e.proto));
  let phase_bits, phase_messages = phase_tally collector in
  if List.fold_left (fun acc (_, b) -> acc + b) 0 phase_bits <> cost.total_bits then
    raise (Mismatch (Printf.sprintf "trial %d (%s): phase bits do not sum to the cost" e.index e.proto));
  {
    entry = e;
    wall_ns;
    party_ns = (if split then Some (ca.busy + cb.busy) else None);
    counters = List.map (fun n -> (n, Obsv.Metrics.counter_value registry n)) counter_names;
    instances = Option.value ~default:0 (Obsv.Metrics.gauge_value registry "bucket/instances");
    phase_bits;
    phase_messages;
  }

(* Passes over the pool in index order until [budget_ns] has passed (at
   least one).  Counts and phases are read from the first pass, which is
   the same trials as the untraced run's reference pass. *)
let traced_passes (pool : Trials.pool) ~budget_ns =
  let start = now () in
  let pass () = Array.to_list (Array.map (traced_trial pool) pool.entries) in
  let first = pass () in
  let rest = ref [] in
  while now () - start < budget_ns do
    rest := pass () @ !rest
  done;
  (first, first @ !rest)

(* --- replays ---------------------------------------------------------- *)

let bits_of_int ~width x = Bitio.Pool.payload (fun buf -> Bitio.Bitbuf.write_bits buf ~width x)

(* Eq_batch at a trial's shape: [n] instances of [width]-bit strings, a
   share [equal] of them equal, run through [Two_party.run] with the
   party clocks; ns of party compute per instance. *)
let eq_batch_replay ~n ~width ~equal =
  let rng = Prng.Rng.of_int 7 in
  let xs = Array.init n (fun _ -> Prng.Rng.bits rng ~width) in
  let equal_count = int_of_float (Float.round (equal *. float_of_int n)) in
  let eq = Array.init n (fun i -> i < equal_count) in
  Prng.Rng.shuffle rng eq;
  let ys = Array.mapi (fun i x -> if eq.(i) then x else x lxor (1 + Prng.Rng.int rng ((1 lsl width) - 1))) xs in
  let alice = Array.map (bits_of_int ~width) xs and bob = Array.map (bits_of_int ~width) ys in
  let run rep =
    let shared = Prng.Rng.with_label rng ("replay/" ^ string_of_int rep) in
    let ca = { busy = 0; last = 0 } and cb = { busy = 0; last = 0 } in
    let (_ : bool array * bool array), (_ : Commsim.Cost.t) =
      Commsim.Two_party.run
        ~alice:(timed ca (fun chan -> Eq_batch.run_alice shared chan alice))
        ~bob:(timed cb (fun chan -> Eq_batch.run_bob shared chan bob))
    in
    float_of_int (ca.busy + cb.busy) /. float_of_int (max 1 n)
  in
  let rec collect rep acc spent =
    if rep >= 5 && (spent > 50_000_000 || rep >= 40) then acc
    else
      let t0 = now () in
      let v = run rep in
      collect (rep + 1) (v :: acc) (spent + (now () - t0))
  in
  Clock.median (collect 0 [] 0)

(* One tree re-run leaf, both parties' sides without the transport
   (Basic_intersection's tags, tag tables and filters), over the leaves
   whose buckets differ in the pair [s], [t]; the leaf's hash function is
   drawn outside the timed call, as the ledger counts it under
   strhash.create.  ns per leaf. *)
let bi_leaf_replay ~k s t =
  let rng = Prng.Rng.of_int 23 in
  let h = Hashing.Carter_wegman.create (Prng.Rng.with_label rng "tree/bucket") ~universe ~range:k in
  let a = Iset.partition_by (Hashing.Carter_wegman.hash h) ~bins:k s in
  let b = Iset.partition_by (Hashing.Carter_wegman.hash h) ~bins:k t in
  let leaves = List.filter (fun u -> not (Iset.equal a.(u) b.(u))) (List.init k Fun.id) in
  let leaves = Array.of_list (if leaves = [] then [ 0 ] else leaves) in
  let bits = Basic_intersection.tag_bits ~m:2 ~failure:1e-3 in
  let fns = Array.map (fun u -> Strhash.create (Prng.Rng.with_label rng (string_of_int u)) ~bits) leaves in
  let to_bob = Bitio.Bitbuf.create () and to_alice = Bitio.Bitbuf.create () in
  Clock.per_call (fun i ->
      let j = i mod Array.length leaves in
      let u = leaves.(j) and fn = fns.(j) in
      Bitio.Bitbuf.reset to_bob;
      Bitio.Bitbuf.reset to_alice;
      Bitio.Codes.write_gamma to_bob (Array.length a.(u));
      Basic_intersection.write_tags to_bob fn a.(u);
      let reader = Bitio.Bitreader.of_bitbuf to_bob in
      let their_size = Bitio.Codes.read_gamma reader in
      let table = Basic_intersection.read_tag_keys reader ~bits ~count:their_size in
      Basic_intersection.write_tags to_alice fn b.(u);
      ignore (Sys.opaque_identity (Basic_intersection.filter_by_tags fn table b.(u)));
      let reader = Bitio.Bitreader.of_bitbuf to_alice in
      let table = Basic_intersection.read_tag_keys reader ~bits ~count:(Array.length b.(u)) in
      ignore (Sys.opaque_identity (Basic_intersection.filter_by_tags fn table a.(u))))

(* A ping-pong of [m] messages of [bits] bits through [Two_party.run]. *)
let ping_pong ~m ~bits =
  let payload =
    Bitio.Pool.payload (fun buf ->
        for _ = 1 to max 1 bits do
          Bitio.Bitbuf.write_bit buf true
        done)
  in
  let party first chan =
    for i = 0 to m - 1 do
      if (i mod 2 = 0) = first then Commsim.Transport.send chan payload
      else ignore (Sys.opaque_identity (Commsim.Transport.recv chan))
    done
  in
  fun (_ : int) ->
    ignore (Sys.opaque_identity (Commsim.Two_party.run ~alice:(party true) ~bob:(party false)))

let strhash_fns widths =
  let rng = Prng.Rng.of_int 11 in
  Array.mapi
    (fun i bits -> Strhash.create (Prng.Rng.with_label rng ("replay/fn" ^ string_of_int i)) ~bits)
    widths

(* [write]/[matches] per call over [payloads], each hashed by the
   function of the same position. *)
let strhash_replays fns payloads =
  let n = Array.length payloads in
  let buf = Bitio.Bitbuf.create () in
  let write =
    Clock.per_call (fun i ->
        if i mod n = 0 then Bitio.Bitbuf.reset buf;
        Strhash.write fns.(i mod n) buf payloads.(i mod n))
  in
  Bitio.Bitbuf.reset buf;
  Array.iteri (fun i p -> Strhash.write fns.(i) buf p) payloads;
  let tags = Bitio.Bitbuf.contents buf in
  let reader = ref (Bitio.Bitreader.create tags) in
  let matches =
    Clock.per_call (fun i ->
        if i mod n = 0 then reader := Bitio.Bitreader.create tags;
        ignore (Sys.opaque_identity (Strhash.matches fns.(i mod n) !reader payloads.(i mod n))))
  in
  (write, matches)

(* The tree protocol's node payloads for one party's set: every node of
   every stage, as gap-coded buckets of its leaves. *)
let tree_node_payloads ~k ~r set =
  let rng = Prng.Rng.of_int 13 in
  let h = Hashing.Carter_wegman.create (Prng.Rng.with_label rng "tree/bucket") ~universe ~range:k in
  let assign = Iset.partition_by (Hashing.Carter_wegman.hash h) ~bins:k set in
  let tree = Vtree.build ~k ~r in
  Array.concat
    (List.init r (fun stage ->
         Array.map
           (fun node ->
             Bitio.Pool.payload (fun buf ->
                 List.iter (fun u -> Bitio.Set_codec.write_gaps buf assign.(u)) (Vtree.leaves node)))
           tree.Vtree.levels.(stage)))

let tree_nodes ~k ~r =
  let tree = Vtree.build ~k ~r in
  List.fold_left ( + ) 0 (List.init r (fun stage -> Array.length tree.Vtree.levels.(stage)))

(* Bucket_protocol's instance-string width at this k. *)
let image_width ~k = Bitio.Set_codec.universe_width (min universe (max 64 (k * k * k)))

(* --- the run ---------------------------------------------------------- *)

type metric = string * float * string

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))
let per_trial traced f = mean (List.map (fun t -> float_of_int (f t)) traced)

let run (pool : Trials.pool) ~domains ~seconds : metric list * string list =
  let spec = pool.spec in
  let k = spec.k in
  let clock_read_ns = Clock.read_ns () in
  let setgen_ms =
    Clock.per_call (fun i -> ignore (Sys.opaque_identity (Trials.make_pair spec pool.stream i))) /. 1e6
  in
  (* Untraced closed loop: GC, engine busy share, and the untraced p50. *)
  let loop = Trials.closed_loop pool ~domains ~seconds:(0.4 *. seconds) in
  let acc = loop.acc in
  let trials = float_of_int acc.n in
  let untraced_p50 = float_of_int (Trials.percentile acc 0.5) in
  (* Traced pass. *)
  let first, all = traced_passes pool ~budget_ns:(int_of_float (0.3 *. seconds *. 1e9)) in
  let covered = List.filter (fun t -> t.party_ns <> None) all in
  let party_ns t = Option.value ~default:0 t.party_ns in
  let traced_p50 = Clock.median (List.map (fun t -> float_of_int t.wall_ns) all) in
  let count name = per_trial first (fun t -> List.assoc name t.counters) in
  (* Replay shapes, from the workload's own bucket trials where it has any. *)
  let bucket_first = List.filter (fun t -> t.entry.proto = "bucket") first in
  let instances = per_trial bucket_first (fun t -> t.instances) in
  let eq_n, eq_equal =
    if bucket_first = [] then (k, 0.5)
    else
      ( int_of_float (Float.round instances),
        per_trial bucket_first (fun t -> Iset.cardinal (Iset.inter t.entry.s t.entry.t))
        /. max 1. instances )
  in
  let width = image_width ~k in
  let sample = pool.entries.(0) in
  let s = sample.s and t = sample.t in
  let image i = s.(i mod k) land ((1 lsl width) - 1) in
  let msgs = Trials.mean_over pool (fun e -> e.cost.messages) in
  let bits = Trials.mean_over pool (fun e -> e.cost.total_bits) in
  let m = max 2 (int_of_float (Float.round msgs)) in
  let ns_per_message = Clock.per_call (ping_pong ~m ~bits:(int_of_float (bits /. msgs))) /. float_of_int m in
  let eq_ns = eq_batch_replay ~n:(max 1 eq_n) ~width ~equal:eq_equal in
  let workload_r = List.find_map (fun p -> tree_r ~k p) (Array.to_list spec.protocols) in
  let bucket_widths = [| 2; 4; 8; 16; 32; Eq_batch.joint_bits ~k |] in
  (* Tree_protocol's per-stage equality widths (its stage_eq_bits). *)
  let tree_widths =
    let r = Option.value ~default:2 workload_r in
    Array.init r (fun stage ->
        max 8 (4 * Iterated_log.log2_ceil (Iterated_log.ilog (r - stage - 1) k + 1)))
  in
  let create_widths = if workload_r = None then bucket_widths else tree_widths in
  let create_rngs = Array.init 64 (fun i -> Prng.Rng.with_label (Prng.Rng.of_int 17) (string_of_int i)) in
  let create_ns =
    Clock.per_call (fun i ->
        ignore
          (Sys.opaque_identity
             (Strhash.create create_rngs.(i land 63) ~bits:create_widths.(i mod Array.length create_widths))))
  in
  (* write/matches: tree node payloads where the tree protocol runs,
     bucket's fixed-width images otherwise. *)
  let write_ns, matches_ns =
    match workload_r with
    | Some r ->
        let payloads = tree_node_payloads ~k ~r s in
        strhash_replays (strhash_fns (Array.map (fun _ -> tree_widths.(0)) payloads)) payloads
    | None ->
        let payloads = Array.init (min 256 k) (fun i -> bits_of_int ~width (image i)) in
        strhash_replays
          (strhash_fns (Array.mapi (fun i _ -> bucket_widths.(i mod 5)) payloads))
          payloads
  in
  let root = Prng.Rng.of_int 19 in
  let label_fold_ns =
    Clock.per_call (fun i ->
        let d = Prng.Rng.Label.start root in
        Prng.Rng.Label.add d "eqb/g";
        Prng.Rng.Label.add_int d (i land 31);
        Prng.Rng.Label.add d "/t";
        Prng.Rng.Label.add_int d (i land 3);
        Prng.Rng.Label.add d "/i";
        Prng.Rng.Label.add_int d (i land 4095);
        ignore (Sys.opaque_identity (Prng.Rng.Label.finish d)))
  in
  let labels = Array.init 256 (fun i -> Printf.sprintf "tree/eq/s%d/v%d" (i land 1) i) in
  let with_label_ns =
    Clock.per_call (fun i -> ignore (Sys.opaque_identity (Prng.Rng.with_label root labels.(i land 255))))
  in
  let cw = Hashing.Carter_wegman.create (Prng.Rng.with_label root "replay/cw") ~universe ~range:k in
  let cw_ns =
    Clock.per_call (fun i -> ignore (Sys.opaque_identity (Hashing.Carter_wegman.hash cw s.(i mod k))))
  in
  let payload_ns = Clock.per_call (fun i -> ignore (Sys.opaque_identity (bits_of_int ~width (image i)))) in
  let counts = Array.map Array.length (Iset.partition_by (Hashing.Carter_wegman.hash cw) ~bins:k s) in
  let buf = Bitio.Bitbuf.create () in
  let gamma_ns =
    Clock.per_call (fun _ ->
        Bitio.Bitbuf.reset buf;
        Array.iter (Bitio.Codes.write_gamma buf) counts;
        let reader = Bitio.Bitreader.of_bitbuf buf in
        for _ = 1 to k do
          ignore (Sys.opaque_identity (Bitio.Codes.read_gamma reader))
        done)
    /. float_of_int k
  in
  let gaps_write_ns =
    Clock.per_call (fun _ ->
        Bitio.Bitbuf.reset buf;
        Bitio.Set_codec.write_gaps buf s)
    /. float_of_int k
  in
  let gaps_ns =
    Clock.per_call (fun _ ->
        Bitio.Bitbuf.reset buf;
        Bitio.Set_codec.write_gaps buf s;
        ignore (Sys.opaque_identity (Bitio.Set_codec.read_gaps (Bitio.Bitreader.of_bitbuf buf))))
    /. float_of_int k
  in
  let partition_ns =
    Clock.per_call (fun _ ->
        ignore (Sys.opaque_identity (Iset.partition_by (Hashing.Carter_wegman.hash cw) ~bins:k s)))
    /. float_of_int k
  in
  let inter_ns =
    Clock.per_call (fun _ -> ignore (Sys.opaque_identity (Iset.inter s t)))
    /. float_of_int (Array.length s + Array.length t)
  in
  let bi_leaf_ns = bi_leaf_replay ~k s t in
  let dispatch_ns =
    Clock.per_call (fun _ ->
        Engine.Pool.fold ~domains ~trials:acc.n
          ~init:(fun () -> ())
          ~step:(fun () _ -> ())
          ~merge:(fun () () -> ())
          ())
    /. float_of_int acc.n
  in
  (* The ledger: ns/call x calls per trial for the layers whose call count
     per trial is known, over the bucket and tree trials. *)
  let terms (tr : traced) =
    let c name = float_of_int (List.assoc name tr.counters) in
    let kf = float_of_int k in
    match (tr.entry.proto, tree_r ~k tr.entry.proto) with
    | "bucket", _ ->
        let attempts = 2. +. c "bucket/retries" in
        Some
          [
            ("eq_batch", eq_ns *. float_of_int tr.instances);
            ("iset.partition", partition_ns *. kf *. attempts);
            ("bitio.gamma", gamma_ns *. kf *. attempts);
            ("bitio.payload", payload_ns *. 2. *. kf);
          ]
    | _, Some r ->
        let nodes = float_of_int (tree_nodes ~k ~r) in
        let creates = (2. *. nodes) +. c "tree/failed_leaves" in
        Some
          [
            ("iset.partition", partition_ns *. 2. *. kf);
            ("strhash.create", create_ns *. creates);
            ("prng.with_label", with_label_ns *. creates);
            ("strhash.write", write_ns *. nodes);
            ("strhash.matches", matches_ns *. nodes);
            ("bitio.gaps", gaps_write_ns *. 2. *. float_of_int r *. kf);
            ("basic_intersection", bi_leaf_ns *. c "tree/failed_leaves" /. 2.);
          ]
    | _ -> None
  in
  let ledger = List.filter_map (fun tr -> Option.map (fun ts -> (tr, ts)) (terms tr)) covered in
  let ledger_party = List.fold_left (fun acc (tr, _) -> acc +. float_of_int (party_ns tr)) 0. ledger in
  let layer_sums = Hashtbl.create 8 in
  List.iter
    (fun (_, ts) ->
      List.iter
        (fun (name, ns) ->
          Hashtbl.replace layer_sums name (ns +. Option.value ~default:0. (Hashtbl.find_opt layer_sums name)))
        ts)
    ledger;
  let explained = Hashtbl.fold (fun _ ns acc -> acc +. ns) layer_sums 0. in
  let share_of name = Option.value ~default:0. (Hashtbl.find_opt layer_sums name) /. max 1. ledger_party in
  let ledger_line =
    Printf.sprintf "perfbench: ledger over %d bucket/tree trials: %s; left out: %s" (List.length ledger)
      (String.concat ", "
         (List.map
            (fun name -> Printf.sprintf "%s=%.1f%%" name (100. *. share_of name))
            (List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) layer_sums []))))
      "instance-table and output-set assembly, message framing outside the replayed codecs, Vtree.build, protocols without a public party function"
  in
  let mean_phase get key = per_trial first (fun t -> List.assoc key (get t)) in
  let metrics =
    [
      ("clock.read_ns", clock_read_ns, "ns");
      ("setgen.pair_ms", setgen_ms, "ms");
      ("engine.dispatch_ns_per_trial", dispatch_ns, "ns");
      ( "engine.busy_share",
        float_of_int acc.busy_ns /. (float_of_int loop.wall_ns *. float_of_int domains),
        "fraction" );
      ("gc.minor_per_ktrial", float_of_int loop.minor_gcs *. 1000. /. trials, "count");
      ("gc.major_per_ktrial", float_of_int loop.major_gcs *. 1000. /. trials, "count");
      ("gc.promoted_words_per_trial", acc.promoted /. trials, "words");
      ( "commsim.self_us_per_trial",
        per_trial covered (fun t -> t.wall_ns - party_ns t) /. 1e3,
        "us" );
      ("commsim.ns_per_message", ns_per_message, "ns");
      ("core.party_us_per_trial", per_trial covered party_ns /. 1e3, "us");
      ("eq_batch.ns_per_instance", eq_ns, "ns");
      ("count.eq_instances_per_trial", per_trial first (fun t -> t.instances), "count");
      ("count.eq_tag_rounds_per_trial", count "eq/tag_rounds", "count");
      ("count.eq_joint_checks_per_trial", count "eq/joint_checks", "count");
      ("count.eq_exact_fallbacks_per_trial", count "eq/exact_fallbacks", "count");
      ("count.bucket_retries_per_trial", count "bucket/retries", "count");
      ("count.tree_failed_leaves_per_trial", count "tree/failed_leaves", "count");
      ("strhash.create_ns", create_ns, "ns");
      ("strhash.write_ns", write_ns, "ns");
      ("strhash.matches_ns", matches_ns, "ns");
      ("prng.label_fold_ns", label_fold_ns, "ns");
      ("prng.with_label_ns", with_label_ns, "ns");
      ("hashing.cw_hash_ns", cw_ns, "ns");
      ("bitio.payload_ns", payload_ns, "ns");
      ("bitio.gamma_ns", gamma_ns, "ns");
      ("bitio.gaps_ns_per_elem", gaps_ns, "ns");
      ("bitio.gaps_write_ns_per_elem", gaps_write_ns, "ns");
      ("iset.partition_ns_per_elem", partition_ns, "ns");
      ("iset.inter_ns_per_elem", inter_ns, "ns");
      ("bi.leaf_ns", bi_leaf_ns, "ns");
    ]
    @ List.concat_map
        (fun key ->
          [
            ("phase." ^ key ^ ".bits", mean_phase (fun t -> t.phase_bits) key, "bits");
            ("phase." ^ key ^ ".messages", mean_phase (fun t -> t.phase_messages) key, "count");
          ])
        phase_keys
    @ [
        ("obsv.traced_ratio", traced_p50 /. untraced_p50, "ratio");
        ("ledger.explained_share", explained /. max 1. ledger_party, "fraction");
      ]
  in
  (metrics, [ ledger_line ])
