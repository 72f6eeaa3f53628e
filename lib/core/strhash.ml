(* Arithmetic over the Mersenne prime p = 2^61 - 1, using OCaml's 63-bit
   native ints.  [reduce] accepts any value < 2^62. *)

let p61 = (1 lsl 61) - 1

let reduce x =
  let x = (x land p61) + (x lsr 61) in
  if x >= p61 then x - p61 else x

(* Product mod p for a, b < p, via a 31/30-bit split; every intermediate
   stays below 2^62, the safe range of [reduce]. *)
let mul61 a b =
  let au = a lsr 31 and ad = a land 0x7FFFFFFF in
  let bu = b lsr 31 and bd = b land 0x7FFFFFFF in
  let mid = (ad * bu) + (au * bd) in
  let mid_hi = mid lsr 30 and mid_lo = mid land ((1 lsl 30) - 1) in
  (* a*b = au*bu*2^62 + mid*2^31 + ad*bd, and 2^61 = 1 (mod p). *)
  let r1 = reduce ((au * bu * 2) + mid_hi) in
  let r2 = reduce (mid_lo lsl 31) in
  let r3 = reduce (ad * bd) in
  reduce (reduce (r1 + r2) + r3)

let lane_width = 48

(* Lane [i] is the affine map [v -> a*v + b mod p] at [lanes.(2i)] and
   [lanes.(2i+1)], contributing the low [min lane_width (bits - 48i)] bits
   of the tag.  The array only grows, so a redrawn function keeps its
   storage; lanes past [lane_count bits] are stale and never read. *)
type fn = { mutable point : int; mutable lanes : int array; mutable bits : int }

let lane_count bits = (bits + lane_width - 1) / lane_width

(* Rejection from 61 uniform bits; top-level so no closure environment is
   allocated per draw (one draw for the point and two per lane, on every
   per-instance redraw of the batch-equality hot path). *)
let rec draw_mod_p rng =
  let v = Prng.Rng.bits rng ~width:61 in
  if v < p61 then v else draw_mod_p rng

let redraw fn rng ~bits =
  if bits < 1 then invalid_arg "Strhash.redraw: bits";
  let n = lane_count bits in
  if Array.length fn.lanes < 2 * n then fn.lanes <- Array.make (2 * n) 0;
  fn.point <- 2 + (draw_mod_p rng mod (p61 - 4));
  for i = 0 to n - 1 do
    fn.lanes.(2 * i) <- 1 + (draw_mod_p rng mod (p61 - 1));
    fn.lanes.((2 * i) + 1) <- draw_mod_p rng
  done;
  fn.bits <- bits

let create rng ~bits =
  if bits < 1 then invalid_arg "Strhash.create: bits";
  let fn = { point = 0; lanes = Array.make (2 * lane_count bits) 0; bits } in
  redraw fn rng ~bits;
  fn

let bits fn = fn.bits

(* Polynomial fingerprint of a bit string: fold 24-bit chunks with a
   length prefix so strings of different lengths cannot alias. *)
let fingerprint fn payload =
  let n = Bitio.Bits.length payload in
  let acc = ref (reduce (n + 1)) in
  let i = ref 0 in
  while !i < n do
    let chunk_len = Int.min 24 (n - !i) in
    let chunk = Bitio.Bits.extract payload ~pos:!i ~width:chunk_len in
    (* chunk + 1 so trailing zero chunks still advance the polynomial *)
    acc := reduce (mul61 !acc fn.point + (chunk + 1));
    i := !i + chunk_len
  done;
  !acc

(* Lane [i]'s tag bits for the collapsed value [v]: the low bits of a
   near-uniform value mod p. *)
let lane_width_at fn i = Int.min lane_width (fn.bits - (i * lane_width))

let lane_value fn i v =
  let h = reduce (mul61 fn.lanes.(2 * i) v + fn.lanes.((2 * i) + 1)) in
  h land ((1 lsl lane_width_at fn i) - 1)

(* Write the tag of the collapsed value [v] straight into [buf]: same bits
   as freezing a private Bitbuf, without the intermediate allocation. *)
let write_value fn buf v =
  for i = 0 to lane_count fn.bits - 1 do
    Bitio.Bitbuf.write_bits buf ~width:(lane_width_at fn i) (lane_value fn i v)
  done

let tag_of_value fn v =
  let buf = Bitio.Bitbuf.create ~capacity:fn.bits () in
  write_value fn buf v;
  Bitio.Bitbuf.contents buf

let apply fn payload = tag_of_value fn (fingerprint fn payload)

let apply_int fn x =
  if x < 0 || x lsr 60 <> 0 then invalid_arg "Strhash.apply_int: out of range";
  tag_of_value fn x

let write fn buf payload = write_value fn buf (fingerprint fn payload)

let write_int fn buf x =
  if x < 0 || x lsr 60 <> 0 then invalid_arg "Strhash.write_int: out of range";
  write_value fn buf x

(* Compare lane by lane against bits consumed from [reader].  Every lane
   is read even after a mismatch so the reader always advances by exactly
   [fn.bits], mirroring what a read_blob + Bits.equal round trip did. *)
let matches_value fn reader v =
  let ok = ref true in
  for i = 0 to lane_count fn.bits - 1 do
    let theirs = Bitio.Bitreader.read_bits reader ~width:(lane_width_at fn i) in
    if theirs <> lane_value fn i v then ok := false
  done;
  !ok

let matches fn reader payload = matches_value fn reader (fingerprint fn payload)

(* Range forms for payloads that sit inside a larger buffer: the tag of
   bits [pos .. pos + len - 1] of [payload] is the tag of that slice as a
   bit string of its own.  The fold is [fingerprint]'s, with chunk
   offsets taken from [pos]. *)
let fingerprint_range fn payload ~pos ~len =
  let acc = ref (reduce (len + 1)) in
  let i = ref 0 in
  while !i < len do
    let chunk_len = Int.min 24 (len - !i) in
    let chunk = Bitio.Bits.extract payload ~pos:(pos + !i) ~width:chunk_len in
    acc := reduce (mul61 !acc fn.point + (chunk + 1));
    i := !i + chunk_len
  done;
  !acc

let write_range fn buf payload ~pos ~len = write_value fn buf (fingerprint_range fn payload ~pos ~len)

let matches_range fn reader payload ~pos ~len =
  matches_value fn reader (fingerprint_range fn payload ~pos ~len)

(* Lane-level access for tag sets kept as ints: a tag of [bits] bits is
   its lanes in order, lane [i] [lane_width_of ~bits i] bits wide. *)
let lanes ~bits = lane_count bits

let lane_width_of ~bits i = Int.min lane_width (bits - (i * lane_width))

let int_lane fn i x =
  if x < 0 || x lsr 60 <> 0 then invalid_arg "Strhash.int_lane: out of range";
  lane_value fn i x

let tag rng ~bits payload = apply (create rng ~bits) payload

let tag_int rng ~bits x = apply_int (create rng ~bits) x
