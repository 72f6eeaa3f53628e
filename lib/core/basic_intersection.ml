let tag_bits ~m ~failure =
  if failure <= 0.0 || failure >= 1.0 then invalid_arg "Basic_intersection.tag_bits: failure";
  let m = max 2 m in
  let pair_bits = 2 * Iterated_log.log2_ceil m in
  let failure_bits = int_of_float (Float.ceil (-.log failure /. log 2.0)) in
  max 4 (pair_bits + failure_bits)

let write_tags buf fn set = Array.iter (fun x -> Strhash.write_int fn buf x) set

(* A tag set: [count] tags of [bits] bits, tag [i] stored as its [lanes]
   lane ints ({!Strhash.lanes}) at [keys.(i * lanes) ..], the records
   sorted lexicographically so that lookup is a binary search.  Record
   [count], past the set, holds the tag being looked up.  One
   representation for every width: a 66-bit tag is two ints, not a
   string. *)
type tags = { mutable bits : int; mutable lanes : int; mutable count : int; mutable keys : int array }

let tags_create () = { bits = 1; lanes = 1; count = 0; keys = [| 0 |] }

(* Size [t] for [count] tags of [bits] bits plus the lookup record;
   storage only grows. *)
let reset t ~bits ~count =
  let lanes = Strhash.lanes ~bits in
  t.bits <- bits;
  t.lanes <- lanes;
  t.count <- count;
  if Array.length t.keys < lanes * (count + 1) then t.keys <- Array.make (lanes * (count + 1)) 0

let compare_records keys lanes i j =
  let c = ref 0 and l = ref 0 in
  while !c = 0 && !l < lanes do
    c := Int.compare keys.((i * lanes) + !l) keys.((j * lanes) + !l);
    incr l
  done;
  !c

let swap_records keys lanes i j =
  for l = 0 to lanes - 1 do
    let v = keys.((i * lanes) + l) in
    keys.((i * lanes) + l) <- keys.((j * lanes) + l);
    keys.((j * lanes) + l) <- v
  done

let rec sift_down keys lanes i n =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && compare_records keys lanes (c + 1) c > 0 then c + 1 else c in
    if compare_records keys lanes c i > 0 then begin
      swap_records keys lanes i c;
      sift_down keys lanes c n
    end
  end

(* In-place heapsort of the records: no allocation at any width. *)
let sort t =
  let keys = t.keys and lanes = t.lanes and n = t.count in
  for i = (n / 2) - 1 downto 0 do
    sift_down keys lanes i n
  done;
  for last = n - 1 downto 1 do
    swap_records keys lanes 0 last;
    sift_down keys lanes 0 last
  done

(* Is the lookup record one of the set's? *)
let probe_mem t =
  let lo = ref 0 and hi = ref t.count and found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = compare_records t.keys t.lanes t.count mid in
    if c = 0 then found := true else if c < 0 then hi := mid else lo := mid + 1
  done;
  !found

let read_unsorted t reader ~bits ~count =
  reset t ~bits ~count;
  for i = 0 to count - 1 do
    for l = 0 to t.lanes - 1 do
      t.keys.((i * t.lanes) + l) <-
        Bitio.Bitreader.read_bits reader ~width:(Strhash.lane_width_of ~bits l)
    done
  done

let read_tags_into t reader ~bits ~count =
  read_unsorted t reader ~bits ~count;
  sort t

let read_tag_keys reader ~bits ~count =
  let t = tags_create () in
  read_tags_into t reader ~bits ~count;
  t

let tags_of_set fn set =
  let t = tags_create () in
  reset t ~bits:(Strhash.bits fn) ~count:(Array.length set);
  Array.iteri
    (fun i x ->
      for l = 0 to t.lanes - 1 do
        t.keys.((i * t.lanes) + l) <- Strhash.int_lane fn l x
      done)
    set;
  sort t;
  t

let mem_tag t fn x =
  if Strhash.bits fn <> t.bits then invalid_arg "Basic_intersection.mem_tag: width";
  for l = 0 to t.lanes - 1 do
    t.keys.((t.count * t.lanes) + l) <- Strhash.int_lane fn l x
  done;
  probe_mem t

let read_members mine reader ~count =
  let theirs = tags_create () in
  read_unsorted theirs reader ~bits:mine.bits ~count;
  let found =
    Array.init count (fun i ->
        Array.blit theirs.keys (i * mine.lanes) mine.keys (mine.count * mine.lanes) mine.lanes;
        probe_mem mine)
  in
  sort theirs;
  (theirs, found)

let filter_by_tags fn t set = Iset.filter (fun x -> mem_tag t fn x) set

(* The standalone 4-message exchange.  [mine]/[theirs] differ only in who
   talks first, so both runners share this body. *)
let run rng ~failure chan ~first mine =
  let open Commsim.Transport in
  let my_size = Array.length mine in
  let their_size =
    Obsv.Trace.span Obsv.Phases.bi_sizes (fun () ->
        if first then begin
          chan.send (Wire.gamma_msg my_size);
          Wire.read_gamma_msg (chan.recv ())
        end
        else begin
          let n = Wire.read_gamma_msg (chan.recv ()) in
          chan.send (Wire.gamma_msg my_size);
          n
        end)
  in
  let m = my_size + their_size in
  let bits = tag_bits ~m ~failure in
  let fn = Strhash.create (Prng.Rng.with_label rng "basic-intersection/fn") ~bits in
  let my_tags = Bitio.Pool.payload (fun buf -> write_tags buf fn mine) in
  Obsv.Metrics.record "bi/tag_bits" bits;
  let their_tags =
    Obsv.Trace.span Obsv.Phases.bi_tags ~attrs:[ ("bits", string_of_int bits) ] (fun () ->
        if first then begin
          chan.send my_tags;
          chan.recv ()
        end
        else begin
          let t = chan.recv () in
          chan.send my_tags;
          t
        end)
  in
  let table = read_tag_keys (Bitio.Bitreader.create their_tags) ~bits ~count:their_size in
  filter_by_tags fn table mine

let run_alice rng ~failure chan s = run rng ~failure chan ~first:true s

let run_bob rng ~failure chan t = run rng ~failure chan ~first:false t

let protocol ~failure =
  {
    Protocol.name = Printf.sprintf "basic-intersection(failure=%g)" failure;
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_alice rng ~failure chan s)
            ~bob:(fun chan -> run_bob rng ~failure chan t)
        in
        { Protocol.alice; bob; cost });
  }
