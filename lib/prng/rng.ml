(* The root seed is stored as 32-bit native halves next to the generator:
   label derivation xors the FNV-hashed label into the root and runs one
   SplitMix64 mix, and keeping everything in halves means no Int64 is ever
   built.  [Label.finish] allocates the derived generator (two records);
   [Label.finish_into] re-seeds an existing one in place and allocates
   nothing, which is what the batch-equality hot path uses for its
   per-instance tag functions.  The root halves are mutable only so that
   [finish_into] can overwrite them. *)
type t = { gen : Splitmix64.t; mutable root_hi : int; mutable root_lo : int }

let of_seed seed =
  {
    gen = Splitmix64.create seed;
    root_hi = Int64.to_int (Int64.shift_right_logical seed 32);
    root_lo = Int64.to_int (Int64.logand seed 0xFFFFFFFFL);
  }

let of_int n = of_seed (Int64.of_int n)

(* FNV-1a over 64 bits, computed in two 32-bit native-int halves so the
   per-character loop allocates nothing (Int64 arithmetic boxes every
   intermediate).  The prime is 2^40 + 0x1B3, so
   [h * prime = (h * 0x1B3) + (low24(h) << 40)  (mod 2^64)],
   and each half-product stays below 2^41 — comfortably inside a native
   int.  Bit-identical to the Int64 reference formulation.

   [Label] exposes the same hash incrementally: FNV-1a is a left-to-right
   fold over bytes, so feeding fragments ["eqb/g"; "12"; "/t3"] is
   bit-identical to hashing their concatenation — which is what lets the
   protocol hot paths derive per-instance generators without building the
   label string at all. *)
module Label = struct
  type d = { mutable h_hi : int; mutable h_lo : int; mutable r_hi : int; mutable r_lo : int }

  let start t = { h_hi = 0xCBF29CE4; h_lo = 0x84222325; r_hi = t.root_hi; r_lo = t.root_lo }

  let blit ~src ~dst =
    dst.h_hi <- src.h_hi;
    dst.h_lo <- src.h_lo;
    dst.r_hi <- src.r_hi;
    dst.r_lo <- src.r_lo

  let add_byte d code =
    let l = d.h_lo lxor code in
    let p = l * 0x1B3 in
    d.h_lo <- p land 0xFFFFFFFF;
    d.h_hi <- ((d.h_hi * 0x1B3) + (p lsr 32) + ((l land 0xFFFFFF) lsl 8)) land 0xFFFFFFFF

  let add_char d c = add_byte d (Char.code c)

  (* A plain loop: [String.iter] with a closure over [d] would allocate
     the closure on every call. *)
  let add d s =
    for i = 0 to String.length s - 1 do
      add_byte d (Char.code (String.unsafe_get s i))
    done

  (* Decimal digits, most significant first: the bytes [string_of_int]
     would produce, without the string. *)
  let rec add_nat d n =
    if n >= 10 then add_nat d (n / 10);
    add_byte d (Char.code '0' + (n mod 10))

  let add_int d n = if n < 0 then add d (string_of_int n) else add_nat d n

  let finish d =
    let gen = Splitmix64.of_mixed_halves ~hi:(d.r_hi lxor d.h_hi) ~lo:(d.r_lo lxor d.h_lo) in
    (* [of_mixed_halves] leaves the mixed seed in the out halves until the
       first step; that mixed seed is the derived generator's root. *)
    { gen; root_hi = Splitmix64.out_hi gen; root_lo = Splitmix64.out_lo gen }

  let finish_into d t =
    Splitmix64.reseed_mixed t.gen ~hi:(d.r_hi lxor d.h_hi) ~lo:(d.r_lo lxor d.h_lo);
    t.root_hi <- Splitmix64.out_hi t.gen;
    t.root_lo <- Splitmix64.out_lo t.gen
end

let with_label t label =
  let d = Label.start t in
  Label.add d label;
  Label.finish d

let split t = of_seed (Splitmix64.next t.gen)
let int64 t = Splitmix64.next t.gen

(* The draws below take the top bits of the 64-bit output, assembled from
   the generator's unboxed 32-bit halves so no Int64 is ever built on the
   hot path.  Each is draw-for-draw identical to
   [Int64.shift_right_logical (int64 t) (64 - width)]. *)
let bits t ~width =
  if width < 0 || width > 62 then invalid_arg "Rng.bits: width";
  if width = 0 then 0
  else begin
    Splitmix64.step t.gen;
    let hi = Splitmix64.out_hi t.gen in
    if width <= 32 then hi lsr (32 - width)
    else (hi lsl (width - 32)) lor (Splitmix64.out_lo t.gen lsr (64 - width))
  end

(* Top-level rejection loop: a local [let rec] closure would allocate its
   environment on every [int] call (and [shuffle] makes one call per
   element). *)
let rec reject t ~width bound =
  let v = bits t ~width in
  if v < bound then v else reject t ~width bound

let int t bound =
  if bound < 1 then invalid_arg "Rng.int: bound";
  if bound = 1 then 0 else reject t ~width:(Bitio.Codes.bit_width (bound - 1)) bound

let bool t =
  Splitmix64.step t.gen;
  Splitmix64.out_hi t.gen lsr 31 = 1

let float t =
  (* 53 uniform bits into [0, 1). *)
  Splitmix64.step t.gen;
  let v = (Splitmix64.out_hi t.gen lsl 21) lor (Splitmix64.out_lo t.gen lsr 11) in
  float_of_int v /. 9007199254740992.0

let bernoulli t ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Rng.bernoulli";
  float t < p

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric";
  if p >= 1.0 then 0
  else begin
    let u = 1.0 -. float t (* in (0, 1] *) in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
