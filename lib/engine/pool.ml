let default_domains () = max 1 (Domain.recommended_domain_count ())

(* Chunk size: small enough that uneven trial times balance across workers
   (~8 chunks per worker), large enough that the atomic cursor stays cold.
   Results land in per-index (map) or per-chunk (fold) slots, so chunk
   geometry never affects output — only wall-clock. *)
let chunk_size ~trials ~workers = max 1 (trials / (workers * 8))

let workers_for ~name ?domains ~trials () =
  if trials < 0 then invalid_arg (name ^ ": trials < 0");
  let domains =
    match domains with
    | None -> default_domains ()
    | Some d -> if d < 1 then invalid_arg (name ^ ": domains < 1") else d
  in
  min domains (max 1 trials)

(* The one parallel loop: [workers] domains (the calling one included)
   claim chunk indices from a shared atomic cursor and run
   [body chunk start stop] on the contiguous index range of each. *)
let run_chunks ~workers ~trials ~chunk body =
  let chunks = (trials + chunk - 1) / chunk in
  let cursor = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let c = Atomic.fetch_and_add cursor 1 in
      if c < chunks then begin
        let start = c * chunk in
        body c start (min trials (start + chunk));
        loop ()
      end
    in
    loop ()
  in
  let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
  (* The calling domain is worker zero; join before re-raising so no domain
     outlives the call even when a trial throws. *)
  let mine = try Ok (worker ()) with e -> Error e in
  let joins = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned in
  (match mine with Error e -> raise e | Ok () -> ());
  Array.iter (function Error e -> raise e | Ok () -> ()) joins

let map ?domains ~trials f =
  let workers = workers_for ~name:"Engine.Pool.map" ?domains ~trials () in
  if workers = 1 then Array.init trials f
  else begin
    let results = Array.make trials None in
    let chunk = chunk_size ~trials ~workers in
    run_chunks ~workers ~trials ~chunk (fun _ start stop ->
        for i = start to stop - 1 do
          results.(i) <- Some (f i)
        done);
    Array.map
      (function Some v -> v | None -> failwith "Engine.Pool.map: unfilled slot")
      results
  end

let fold_range ~init ~step start stop =
  let acc = ref (init ()) in
  for i = start to stop - 1 do
    acc := step !acc i
  done;
  !acc

(* Streaming fold: one accumulator per chunk instead of one boxed slot per
   trial.  Workers fold their chunk's trials locally and park the chunk
   accumulator in a per-chunk slot; the final reduction merges the slots
   in chunk-index order.  Chunk boundaries are contiguous index ranges
   merged left to right, so any associative [merge] with [init ()] as
   identity sees a grouping of the exact sequential fold — identical
   result at every domain count, which is what lets the sweep's JSON pass
   the domains-1-vs-2 cmp gate while running 10^6 trials without a
   10^6-element results array. *)
let fold ?domains ~trials ~init ~step ~merge () =
  let workers = workers_for ~name:"Engine.Pool.fold" ?domains ~trials () in
  if workers = 1 then fold_range ~init ~step 0 trials
  else begin
    let chunk = chunk_size ~trials ~workers in
    let slots = Array.make ((trials + chunk - 1) / chunk) None in
    run_chunks ~workers ~trials ~chunk (fun c start stop ->
        slots.(c) <- Some (fold_range ~init ~step start stop));
    Array.fold_left
      (fun acc slot ->
        match slot with
        | Some a -> merge acc a
        | None -> failwith "Engine.Pool.fold: unfilled chunk")
      (init ()) slots
  end
