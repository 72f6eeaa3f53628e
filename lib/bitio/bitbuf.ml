type t = { mutable data : bytes; mutable length : int }

let create ?(capacity = 256) () =
  { data = Bytes.make (max 1 ((capacity + 7) / 8)) '\000'; length = 0 }

let length t = t.length

let ensure t extra_bits =
  let needed = (t.length + extra_bits + 7) / 8 in
  if needed > Bytes.length t.data then begin
    let capacity = max needed (2 * Bytes.length t.data) in
    let data = Bytes.make capacity '\000' in
    Bytes.blit t.data 0 data 0 (Bytes.length t.data);
    t.data <- data
  end

let write_bit t bit =
  ensure t 1;
  if bit then begin
    let i = t.length in
    let j = i lsr 3 in
    let cur = Char.code (Bytes.get t.data j) in
    Bytes.set t.data j (Char.chr (cur lor (1 lsl (i land 7))))
  end;
  t.length <- t.length + 1

let write_bits_unchecked t ~width v =
  ensure t width;
  Bits.or_into t.data ~pos:t.length ~width v;
  t.length <- t.length + width

let write_bits t ~width v =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.write_bits: width";
  if v < 0 || (width < 62 && v lsr width <> 0) then
    invalid_arg "Bitbuf.write_bits: value does not fit width";
  write_bits_unchecked t ~width v

let append t bits =
  let n = Bits.length bits in
  ensure t n;
  let pos = ref 0 in
  while !pos < n do
    let take = Int.min 24 (n - !pos) in
    write_bits_unchecked t ~width:take (Bits.extract bits ~pos:!pos ~width:take);
    pos := !pos + take
  done

let contents t =
  let data = Bytes.sub t.data 0 ((t.length + 7) / 8) in
  Bits.unsafe_of_bytes data ~length:t.length

(* The writer's invariant — every bit at index >= length is zero — is what
   makes both [reset] (zero only the used prefix) and [view] (alias the
   backing bytes directly) sound. *)
let reset t =
  Bytes.fill t.data 0 ((t.length + 7) / 8) '\000';
  t.length <- 0

let view t = Bits.unsafe_of_bytes t.data ~length:t.length
