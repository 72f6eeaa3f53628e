type t = { data : bytes; length : int }

let empty = { data = Bytes.empty; length = 0 }

let length b = b.length

let byte_count length = (length + 7) / 8

let get b i =
  if i < 0 || i >= b.length then invalid_arg "Bits.get: index out of bounds";
  let byte = Char.code (Bytes.get b.data (i lsr 3)) in
  byte land (1 lsl (i land 7)) <> 0

(* Top level (not a local closure): [extract] runs per 24-bit chunk of
   every fingerprint on the batch-equality hot path. *)
let byte_at data i = if i < Bytes.length data then Char.code (Bytes.get data i) else 0

let extract b ~pos ~width =
  if width < 0 || width > 24 then invalid_arg "Bits.extract: width";
  if pos < 0 || pos + width > b.length then invalid_arg "Bits.extract: out of bounds";
  if width = 0 then 0
  else begin
    (* Bits pos..pos+width-1 live in at most 4 consecutive bytes. *)
    let j = pos lsr 3 and off = pos land 7 in
    let d = b.data in
    let word =
      byte_at d j
      lor (byte_at d (j + 1) lsl 8)
      lor (byte_at d (j + 2) lsl 16)
      lor (byte_at d (j + 3) lsl 24)
    in
    (word lsr off) land ((1 lsl width) - 1)
  end

(* Top level, not a closure local to its callers: without flambda a local
   [let rec] allocates its environment on every call, and the writers run
   this once per field. *)
let rec or_into data ~pos ~width v =
  if width > 0 then begin
    let j = pos lsr 3 and off = pos land 7 in
    let take = Int.min width (8 - off) in
    let cur = Char.code (Bytes.get data j) in
    Bytes.set data j (Char.chr (cur lor (((v land ((1 lsl take) - 1)) lsl off) land 0xFF)));
    or_into data ~pos:(pos + take) ~width:(width - take) (v lsr take)
  end

let of_int ~width v =
  if width < 0 || width > 62 then invalid_arg "Bits.of_int: width";
  if v < 0 || (width < 62 && v lsr width <> 0) then invalid_arg "Bits.of_int: value does not fit width";
  let data = Bytes.make (byte_count width) '\000' in
  or_into data ~pos:0 ~width v;
  { data; length = width }

let of_bools bools =
  let length = List.length bools in
  let data = Bytes.make (byte_count length) '\000' in
  List.iteri
    (fun i bit ->
      if bit then
        let j = i lsr 3 in
        let cur = Char.code (Bytes.get data j) in
        Bytes.set data j (Char.chr (cur lor (1 lsl (i land 7)))))
    bools;
  { data; length }

let to_bools b = List.init b.length (get b)

let of_string s = { data = Bytes.of_string s; length = 8 * String.length s }

let unsafe_of_bytes data ~length =
  if length < 0 || length > 8 * Bytes.length data then
    invalid_arg "Bits.unsafe_of_bytes: bad length";
  { data; length }

let bytes b = b.data

let equal a b =
  a.length = b.length
  &&
  let n = byte_count a.length in
  let rec loop i = i >= n || (Bytes.get a.data i = Bytes.get b.data i && loop (i + 1)) in
  loop 0

let key b = string_of_int b.length ^ ":" ^ Bytes.sub_string b.data 0 (byte_count b.length)

let concat a b =
  if a.length = 0 then b
  else if b.length = 0 then a
  else begin
    let length = a.length + b.length in
    let data = Bytes.make (byte_count length) '\000' in
    Bytes.blit a.data 0 data 0 (byte_count a.length);
    (* [a] may end mid-byte, so bits of [b] are re-packed one by one. *)
    for i = 0 to b.length - 1 do
      if get b i then begin
        let k = a.length + i in
        let j = k lsr 3 in
        let cur = Char.code (Bytes.get data j) in
        Bytes.set data j (Char.chr (cur lor (1 lsl (k land 7))))
      end
    done;
    { data; length }
  end

let flip b i =
  if i < 0 || i >= b.length then invalid_arg "Bits.flip: index out of bounds";
  let data = Bytes.sub b.data 0 (byte_count b.length) in
  let j = i lsr 3 in
  Bytes.set data j (Char.chr (Char.code (Bytes.get data j) lxor (1 lsl (i land 7))));
  { data; length = b.length }

let pp ppf b =
  Format.fprintf ppf "%d'" b.length;
  for i = 0 to min (b.length - 1) 63 do
    Format.pp_print_char ppf (if get b i then '1' else '0')
  done;
  if b.length > 64 then Format.pp_print_string ppf "..."
