(* Per-stage error target: 1 / (log^(r-i-1) k)^4, as in Algorithm 1. *)
let stage_failure fl = Float.min 0.25 (1.0 /. (float_of_int fl ** 4.0))

(* Tag width of the stage's equality tests: log2 of 1/failure. *)
let stage_eq_bits fl = max 8 (4 * Iterated_log.log2_ceil (fl + 1))

(* Fallback for the budgeted variant: deterministic exchange of the
   original inputs over the same channel. *)
let trivial_fallback role chan mine =
  let open Commsim.Transport in
  Obsv.Metrics.incr "tree/fallbacks";
  Obsv.Trace.span Obsv.Phases.tree_fallback (fun () ->
      match role with
      | `Alice ->
          chan.send (Wire.of_set mine);
          Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (chan.recv ()))
      | `Bob ->
          let theirs = Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (chan.recv ())) in
          let intersection = Iset.inter theirs mine in
          chan.send (Wire.of_set intersection);
          intersection)

exception Over_budget

let run_party ?buckets ?flat_eq_bits ?budget role rng ~universe ~r ~k chan mine =
  if r < 1 || k < 1 then invalid_arg "Tree_protocol.run_party";
  let open Commsim.Transport in
  (* both parties see every message once, so sent + received is a shared
     counter and budget decisions stay in lockstep *)
  let seen_bits = ref 0 in
  let chan =
    match budget with
    | None -> chan
    | Some _ ->
        {
          send =
            (fun payload ->
              seen_bits := !seen_bits + Bitio.Bits.length payload;
              chan.send payload);
          recv =
            (fun () ->
              let payload = chan.recv () in
              seen_bits := !seen_bits + Bitio.Bits.length payload;
              payload);
        }
  in
  let check_budget () =
    match budget with Some b when !seen_bits > b -> raise Over_budget | _ -> ()
  in
  let leaves = match buckets with Some b -> max 1 b | None -> k in
  let tree = Vtree.build ~k:leaves ~r in
  let bucket =
    Hashing.Carter_wegman.create (Prng.Rng.with_label rng "tree/bucket") ~universe ~range:leaves
  in
  (* The leaf buckets ([Iset.partition_by]'s bins) in one flat array:
     leaf [u] holds the elements [mine.(slot.(j))] for [j] in
     [first.(u) .. first.(u) + live.(u) - 1], ascending.  A re-run drops
     elements by compacting its leaf's slots in place, and the output is
     [mine] filtered by the slots still live, so it needs no sort. *)
  let n = Array.length mine in
  let first = Array.make (leaves + 1) 0 and live = Array.make leaves 0 in
  let slot = Array.make n 0 in
  for i = 0 to n - 1 do
    let b = Hashing.Carter_wegman.hash bucket mine.(i) in
    live.(b) <- live.(b) + 1
  done;
  for u = 0 to leaves - 1 do
    first.(u + 1) <- first.(u) + live.(u)
  done;
  Array.fill live 0 leaves 0;
  for i = 0 to n - 1 do
    let b = Hashing.Carter_wegman.hash bucket mine.(i) in
    slot.(first.(b) + live.(b)) <- i;
    live.(b) <- live.(b) + 1
  done;
  (* Each stage gap-codes every leaf once into one buffer, leaf [u] at bit
     [off.(u)], as [Set_codec.write_gaps] lays it out.  A node covers a
     contiguous leaf range, so its payload (its leaves' codes, as
     [Wire.of_sets] concatenates them) is the buffer range
     [off.(first_leaf) .. off.(first_leaf + leaf_count) - 1]. *)
  let off = Array.make (leaves + 1) 0 in
  let with_codes f =
    Bitio.Pool.with_buf (fun buf ->
        for u = 0 to leaves - 1 do
          off.(u) <- Bitio.Bitbuf.length buf;
          let lo = first.(u) in
          Bitio.Codes.write_gamma buf live.(u);
          for j = lo to lo + live.(u) - 1 do
            let x = mine.(slot.(j)) in
            Bitio.Codes.write_delta buf (if j = lo then x else x - mine.(slot.(j - 1)) - 1)
          done
        done;
        off.(leaves) <- Bitio.Bitbuf.length buf;
        f (Bitio.Bitbuf.view buf))
  in
  let node_pos (node : Vtree.node) = off.(node.first_leaf) in
  let node_len (node : Vtree.node) = off.(node.first_leaf + node.leaf_count) - node_pos node in
  (* Tag functions: ["tree/eq/s<stage>/v<node>"] per node and
     ["tree/bi/leaf<u>/run<rerun.(u)>"] per re-run leaf.  The labels are
     folded incrementally ([Rng.Label], bit-identical to hashing the whole
     string), each prefix once, and every function is redrawn in place
     into one scratch generator and one scratch [Strhash.fn]; the leaf
     tag sets reuse one scratch too.  The scratch lives in this call, so
     concurrent runs on other domains share none of it. *)
  let root = Prng.Rng.Label.start rng in
  let eq_prefix = Prng.Rng.Label.start rng and work = Prng.Rng.Label.start rng in
  let leaf_prefix = Prng.Rng.Label.start rng in
  Prng.Rng.Label.add leaf_prefix "tree/bi/leaf";
  let gen = Prng.Rng.of_int 0 in
  let fn = Strhash.create gen ~bits:1 in
  let tags = Basic_intersection.tags_create () in
  let rerun = Array.make leaves 0 in
  let redraw_node vi ~bits =
    Prng.Rng.Label.blit ~src:eq_prefix ~dst:work;
    Prng.Rng.Label.add_int work vi;
    Prng.Rng.Label.finish_into work gen;
    Strhash.redraw fn gen ~bits
  in
  let redraw_leaf u ~bits =
    Prng.Rng.Label.blit ~src:leaf_prefix ~dst:work;
    Prng.Rng.Label.add_int work u;
    Prng.Rng.Label.add work "/run";
    Prng.Rng.Label.add_int work rerun.(u);
    Prng.Rng.Label.finish_into work gen;
    Strhash.redraw fn gen ~bits
  in
  let write_leaf_tags buf u =
    for j = first.(u) to first.(u) + live.(u) - 1 do
      Strhash.write_int fn buf mine.(slot.(j))
    done
  in
  (* Keep leaf [u]'s elements whose tag is in [tags]. *)
  let filter_leaf u =
    let lo = first.(u) in
    let w = ref lo in
    for j = lo to lo + live.(u) - 1 do
      if Basic_intersection.mem_tag tags fn mine.(slot.(j)) then begin
        slot.(!w) <- slot.(j);
        incr w
      end
    done;
    live.(u) <- !w - lo
  in
  (* The leaves below this stage's failed nodes, in node order, and the
     other side's bucket size for each (Alice reads Bob's; Bob's copy is
     read from Alice's re-run message). *)
  let failed = Array.make leaves 0 and their = Array.make leaves 0 in
  let n_failed = ref 0 in
  let add_failed (node : Vtree.node) =
    for u = node.first_leaf to node.first_leaf + node.leaf_count - 1 do
      failed.(!n_failed) <- u;
      incr n_failed
    done
  in
  try
    for stage = 0 to r - 1 do
      check_budget ();
    let fl = Iterated_log.ilog (r - stage - 1) k in
    let eq_bits = match flat_eq_bits with Some b -> max 2 b | None -> stage_eq_bits fl in
    let failure = stage_failure fl in
    let nodes = tree.Vtree.levels.(stage) in
    Prng.Rng.Label.blit ~src:root ~dst:eq_prefix;
    Prng.Rng.Label.add eq_prefix "tree/eq/s";
    Prng.Rng.Label.add_int eq_prefix stage;
    Prng.Rng.Label.add eq_prefix "/v";
    (* Stage messages 1-2: batched equality tests at level L_stage.  Bob
       replies with the failed-node bitmap plus his bucket sizes under the
       failed nodes (needed to parameterize the re-runs). *)
    Obsv.Metrics.record "tree/eq_bits" eq_bits;
    n_failed := 0;
    Obsv.Trace.span Obsv.Phases.tree_eq
      ~attrs:[ ("stage", string_of_int stage); ("eq_bits", string_of_int eq_bits) ]
      (fun () ->
        match role with
        | `Alice ->
            chan.send
              (with_codes (fun codes ->
                   Bitio.Pool.payload (fun buf ->
                       Array.iteri
                         (fun vi node ->
                           redraw_node vi ~bits:eq_bits;
                           Strhash.write_range fn buf codes ~pos:(node_pos node) ~len:(node_len node))
                         nodes)));
            let reader = Bitio.Bitreader.create (chan.recv ()) in
            Array.iter (fun node -> if Bitio.Bitreader.read_bit reader then add_failed node) nodes;
            for i = 0 to !n_failed - 1 do
              their.(i) <- Bitio.Codes.read_gamma reader
            done
        | `Bob ->
            let reader = Bitio.Bitreader.create (chan.recv ()) in
            chan.send
              (with_codes (fun codes ->
                   Bitio.Pool.payload (fun buf ->
                       Array.iteri
                         (fun vi node ->
                           redraw_node vi ~bits:eq_bits;
                           let ok =
                             Strhash.matches_range fn reader codes ~pos:(node_pos node)
                               ~len:(node_len node)
                           in
                           Bitio.Bitbuf.write_bit buf (not ok);
                           if not ok then add_failed node)
                         nodes;
                       for i = 0 to !n_failed - 1 do
                         Bitio.Codes.write_gamma buf live.(failed.(i))
                       done))));
    (* Stage messages 3-4: batched Basic-Intersection re-runs on every leaf
       below a failed node (Lemma 3.3, with this stage's error target).
       Alice ships her sizes and element tags; Bob filters his buckets,
       ships his own tags of the pre-filter buckets; Alice filters hers. *)
    if !n_failed > 0 then begin
      Obsv.Metrics.incr ~by:!n_failed "tree/failed_leaves";
      let leaf_bits u their_size = Basic_intersection.tag_bits ~m:(live.(u) + their_size) ~failure in
      Obsv.Trace.span Obsv.Phases.tree_rerun ~attrs:[ ("stage", string_of_int stage) ] (fun () ->
      match role with
      | `Alice ->
          chan.send
            (Bitio.Pool.payload (fun buf ->
                 for i = 0 to !n_failed - 1 do
                   let u = failed.(i) in
                   redraw_leaf u ~bits:(leaf_bits u their.(i));
                   Bitio.Codes.write_gamma buf live.(u);
                   write_leaf_tags buf u
                 done));
          let reader = Bitio.Bitreader.create (chan.recv ()) in
          for i = 0 to !n_failed - 1 do
            let u = failed.(i) in
            let bits = leaf_bits u their.(i) in
            redraw_leaf u ~bits;
            Basic_intersection.read_tags_into tags reader ~bits ~count:their.(i);
            filter_leaf u
          done
      | `Bob ->
          let reader = Bitio.Bitreader.create (chan.recv ()) in
          chan.send
            (Bitio.Pool.payload (fun buf ->
                 for i = 0 to !n_failed - 1 do
                   let u = failed.(i) in
                   let their_size = Bitio.Codes.read_gamma reader in
                   let bits = leaf_bits u their_size in
                   redraw_leaf u ~bits;
                   Basic_intersection.read_tags_into tags reader ~bits ~count:their_size;
                   write_leaf_tags buf u;
                   filter_leaf u
                 done)));
      for i = 0 to !n_failed - 1 do
        rerun.(failed.(i)) <- rerun.(failed.(i)) + 1
      done
    end
    done;
    (* The output: [mine] filtered by the slots still live, so sorted. *)
    let keep = Bytes.make n '\000' and kept = ref 0 in
    for u = 0 to leaves - 1 do
      for j = first.(u) to first.(u) + live.(u) - 1 do
        Bytes.set keep slot.(j) '\001'
      done;
      kept := !kept + live.(u)
    done;
    let out = Array.make !kept 0 and w = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get keep i = '\001' then begin
        out.(!w) <- mine.(i);
        incr w
      end
    done;
    out
  with Over_budget ->
    (* stage boundaries are synchronized, so both parties land here with
       the channel quiescent *)
    trivial_fallback role chan mine

let protocol ?buckets ?flat_eq_bits ?k ~r () =
  {
    Protocol.name = Printf.sprintf "tree(r=%d)" r;
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let k = match k with Some k -> k | None -> max 1 (max (Array.length s) (Array.length t)) in
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_party ?buckets ?flat_eq_bits `Alice rng ~universe ~r ~k chan s)
            ~bob:(fun chan -> run_party ?buckets ?flat_eq_bits `Bob rng ~universe ~r ~k chan t)
        in
        { Protocol.alice; bob; cost });
  }

let protocol_budgeted ?(budget_factor = 64) ?k ~r () =
  {
    Protocol.name = Printf.sprintf "tree-budgeted(r=%d,factor=%d)" r budget_factor;
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let k = match k with Some k -> k | None -> max 1 (max (Array.length s) (Array.length t)) in
        let budget = budget_factor * k * max 1 (Iterated_log.ilog r k) in
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_party ~budget `Alice rng ~universe ~r ~k chan s)
            ~bob:(fun chan -> run_party ~budget `Bob rng ~universe ~r ~k chan t)
        in
        { Protocol.alice; bob; cost });
  }

let protocol_log_star ?k () =
  let base ~k_eff = Iterated_log.log_star k_eff in
  {
    Protocol.name = "tree(r=log* k)";
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        let k_eff =
          match k with Some k -> k | None -> max 1 (max (Array.length s) (Array.length t))
        in
        let r = max 1 (base ~k_eff) in
        (protocol ~k:k_eff ~r ()).Protocol.run rng ~universe s t);
  }
