type t = { mutable bits : Bits.t; mutable position : int }

exception Underflow

let create bits = { bits; position = 0 }

let reset t bits =
  t.bits <- bits;
  t.position <- 0

let of_bitbuf buf = { bits = Bitbuf.view buf; position = 0 }

let position t = t.position

let remaining t = Bits.length t.bits - t.position

let read_bit t =
  if t.position >= Bits.length t.bits then raise Underflow;
  let bit = Bits.get t.bits t.position in
  t.position <- t.position + 1;
  bit

let read_chunk t ~width =
  (* width <= 24, bounds already checked by callers *)
  let v = Bits.extract t.bits ~pos:t.position ~width in
  t.position <- t.position + width;
  v

(* Top level, not a closure local to [read_bits]: without flambda a local
   [let rec] over [t] and [width] allocates its environment per call. *)
let rec read_chunks t ~width shift acc =
  if shift >= width then acc
  else begin
    let take = Int.min 24 (width - shift) in
    read_chunks t ~width (shift + take) (acc lor (read_chunk t ~width:take lsl shift))
  end

let read_bits t ~width =
  if width < 0 || width > 62 then invalid_arg "Bitreader.read_bits: width";
  if t.position + width > Bits.length t.bits then raise Underflow;
  read_chunks t ~width 0 0

let read_blob t ~bits =
  if bits < 0 then invalid_arg "Bitreader.read_blob: bits";
  if t.position + bits > Bits.length t.bits then raise Underflow;
  let buf = Bytes.make ((bits + 7) / 8) '\000' in
  let pos = ref 0 in
  while !pos < bits do
    let take = Int.min 24 (bits - !pos) in
    let v = read_chunk t ~width:take in
    (* scatter the chunk into the destination, byte-aligned there *)
    Bits.or_into buf ~pos:!pos ~width:take v;
    pos := !pos + take
  done;
  Bits.unsafe_of_bytes buf ~length:bits
