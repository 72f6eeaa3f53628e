(* Parameters are native ints (all below 2^62).  When p < 2^31 and
   x < 2^31, [a*x + b] stays below 2^62 and the whole hash is native-int
   arithmetic — no Int64 is boxed, which matters without flambda.  Above
   that bound the overflow-safe Int64 path in [Modarith] computes the
   same mathematical value [(a*x + b) mod p mod range]. *)
type t = { p : int; a : int; b : int; range : int; seed_bits : int }

let native_bound = 1 lsl 31

let create rng ~universe ~range =
  if universe < 1 || range < 1 then invalid_arg "Carter_wegman.create";
  let p = Prime.next_prime (max universe 2) in
  let a = 1 + Prng.Rng.int rng (p - 1) in
  let b = Prng.Rng.int rng p in
  { p; a; b; range; seed_bits = 2 * Bitio.Codes.bit_width p }

let hash_int64 t x =
  let p = Int64.of_int t.p in
  let v = Modarith.addmod (Modarith.mulmod (Int64.of_int t.a) (Int64.of_int x) p) (Int64.of_int t.b) p in
  Int64.to_int (Int64.unsigned_rem v (Int64.of_int t.range))

let hash t x =
  if x < 0 then invalid_arg "Carter_wegman.hash: negative";
  if t.p < native_bound && x < native_bound then ((t.a * x) + t.b) mod t.p mod t.range
  else hash_int64 t x

let range t = t.range
let seed_bits t = t.seed_bits
let modulus t = t.p
