let max_retries = 4

(* Instance-count ceiling: E[count] <= 6k (paper, eq. (1)); 20k is far in the
   tail, so retries are rare while the worst case stays linear. *)
let instance_ceiling k = 20 * k

let run_party ?sequential ?(reduce = true) role rng ~universe ~k chan mine =
  if k < 1 then invalid_arg "Bucket_protocol.run_party";
  let open Commsim.Transport in
  let n_reduced = if reduce then max 64 (k * k * k) else universe in
  (* Universe reduction H: [n] -> [k^3]; identity when already small. *)
  let images, preimages =
    if universe <= n_reduced then (mine, None)
    else begin
      let h =
        Hashing.Carter_wegman.create
          (Prng.Rng.with_label rng "bucket/universe-reduce")
          ~universe ~range:n_reduced
      in
      let table = Hashtbl.create (Array.length mine) in
      Array.iter
        (fun x ->
          let image = Hashing.Carter_wegman.hash h x in
          Hashtbl.replace table image
            (x :: Option.value ~default:[] (Hashtbl.find_opt table image)))
        mine;
      (Iset.of_list (List.of_seq (Hashtbl.to_seq_keys table)), Some table)
    end
  in
  let width = Bitio.Set_codec.universe_width n_reduced in
  (* Draw buckets, exchange counts; retry together if the pair count is
     extreme (both parties see the same counts, so they stay in lockstep). *)
  let rec choose_buckets attempt =
    if attempt > 0 then Obsv.Metrics.incr "bucket/retries";
    let h =
      Hashing.Carter_wegman.create
        (Prng.Rng.with_label rng ("bucket/assign/" ^ string_of_int attempt))
        ~universe:n_reduced ~range:k
    in
    let buckets = Iset.partition_by (Hashing.Carter_wegman.hash h) ~bins:k images in
    let my_counts = Array.map Array.length buckets in
    let counts_msg =
      Bitio.Pool.payload (fun buf -> Array.iter (Bitio.Codes.write_gamma buf) my_counts)
    in
    let their_counts =
      let read payload =
        let reader = Bitio.Bitreader.create payload in
        Array.init k (fun _ -> Bitio.Codes.read_gamma reader)
      in
      Obsv.Trace.span Obsv.Phases.bucket_assign ~attrs:[ ("attempt", string_of_int attempt) ] (fun () ->
          match role with
          | `Alice ->
              chan.send counts_msg;
              read (chan.recv ())
          | `Bob ->
              let payload = chan.recv () in
              chan.send counts_msg;
              read payload)
    in
    let pair_count = ref 0 in
    Array.iteri (fun i c -> pair_count := !pair_count + (c * their_counts.(i))) my_counts;
    if !pair_count > instance_ceiling k && attempt < max_retries then choose_buckets (attempt + 1)
    else (buckets, their_counts, !pair_count)
  in
  let buckets, their_counts, pair_count = choose_buckets 0 in
  Array.iter (fun bucket -> Obsv.Metrics.record "bucket/occupancy" (Array.length bucket)) buckets;
  (* Build the common instance table: for bucket i, the cross product of
     Alice's and Bob's elements in rank order.  Each party's input to an
     instance is its own element's fixed-width image encoding.  The pair
     count is known from the exchanged counts, so the tables are filled
     directly (the reversed-list formulation allocated two cons cells plus
     a rev copy per instance — a measurable slice of the trial profile at
     ~6k expected instances). *)
  let instances = Array.make pair_count Bitio.Bits.empty in
  let owners = Array.make pair_count 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i bucket ->
      (* Canonical instance order, identical on both sides: bucket index,
         then Alice's rank, then Bob's rank.  Each element is encoded once
         and the same payload value reused across its cross-product row. *)
      let encoded = Array.map (Bitio.Bits.of_int ~width) bucket in
      let s_count, t_count =
        match role with
        | `Alice -> (Array.length bucket, their_counts.(i))
        | `Bob -> (their_counts.(i), Array.length bucket)
      in
      for a = 0 to s_count - 1 do
        for b = 0 to t_count - 1 do
          let my_rank = match role with `Alice -> a | `Bob -> b in
          instances.(!pos) <- encoded.(my_rank);
          owners.(!pos) <- bucket.(my_rank);
          incr pos
        done
      done)
    buckets;
  Obsv.Metrics.set_gauge "bucket/instances" (Array.length instances);
  let eq_rng = Prng.Rng.with_label rng "bucket/eq-batch" in
  let verdicts =
    Obsv.Trace.span Obsv.Phases.bucket_eq ~attrs:[ ("instances", string_of_int (Array.length instances)) ]
      (fun () ->
        match role with
        | `Alice -> Eq_batch.run_alice ?sequential eq_rng chan instances
        | `Bob -> Eq_batch.run_bob ?sequential eq_rng chan instances)
  in
  let matched_images = ref [] in
  Array.iteri (fun idx equal -> if equal then matched_images := owners.(idx) :: !matched_images) verdicts;
  let originals =
    match preimages with
    | None -> !matched_images
    | Some table -> List.concat_map (fun image -> Hashtbl.find table image) !matched_images
  in
  Iset.of_list originals

let protocol ?sequential ?reduce ?k () =
  {
    Protocol.name = "bucket-eq(sqrt-k rounds)";
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let k = match k with Some k -> k | None -> max 1 (max (Array.length s) (Array.length t)) in
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_party ?sequential ?reduce `Alice rng ~universe ~k chan s)
            ~bob:(fun chan -> run_party ?sequential ?reduce `Bob rng ~universe ~k chan t)
        in
        { Protocol.alice; bob; cost });
  }
