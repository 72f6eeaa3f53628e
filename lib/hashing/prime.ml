(* Deterministic Miller-Rabin: this base set is exact for n < 3.3 * 10^24,
   far beyond our 62-bit inputs (Sorenson & Webster). *)
let witnesses = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

(* Below 2^31 every product of two residues fits a native int, so the test
   runs without boxing; above it the overflow-safe Int64 arithmetic of
   [Modarith] takes over.  Both paths answer the same question the same
   way, so the choice is invisible. *)
let native_bound = 1 lsl 31

let rec powmod_native b e n acc =
  if e = 0 then acc
  else powmod_native (b * b mod n) (e lsr 1) n (if e land 1 = 1 then acc * b mod n else acc)

(* Squares [x] up to [s - 1] times looking for [n - 1]. *)
let rec squares_reach_native x r s n =
  r < s
  &&
  let x = x * x mod n in
  x = n - 1 || squares_reach_native x (r + 1) s n

let strong_probable_prime_native n d s a =
  let a = a mod n in
  a = 0
  ||
  let x = powmod_native a d n 1 in
  x = 1 || x = n - 1 || squares_reach_native x 1 s n

let rec squares_reach_int64 x r s n64 =
  r < s
  &&
  let x = Modarith.mulmod x x n64 in
  x = Int64.pred n64 || squares_reach_int64 x (r + 1) s n64

let strong_probable_prime_int64 n d s a =
  let a = a mod n in
  a = 0
  ||
  let n64 = Int64.of_int n in
  let x = Modarith.powmod (Int64.of_int a) (Int64.of_int d) n64 in
  x = 1L || x = Int64.pred n64 || squares_reach_int64 x 1 s n64

let rec all_witnesses n d s = function
  | [] -> true
  | a :: rest ->
      (if n < native_bound then strong_probable_prime_native n d s a
       else strong_probable_prime_int64 n d s a)
      && all_witnesses n d s rest

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n mod 2 = 0 then false
  else begin
    (* n - 1 = d * 2^s with d odd. *)
    let d = ref (n - 1) and s = ref 0 in
    while !d land 1 = 0 do
      d := !d lsr 1;
      incr s
    done;
    all_witnesses n !d !s witnesses
  end

let rec next_prime_from n = if is_prime n then n else next_prime_from (n + 1)

let next_prime n =
  if n < 2 then invalid_arg "Prime.next_prime";
  next_prime_from n

let random_prime rng ~below =
  if below <= 2 then invalid_arg "Prime.random_prime";
  let rec draw () =
    let candidate = 2 + Prng.Rng.int rng (below - 2) in
    if is_prime candidate then candidate else draw ()
  in
  draw ()
