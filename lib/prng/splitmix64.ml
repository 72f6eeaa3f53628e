(* The state and all mixing arithmetic live in 32-bit native-int halves:
   boxed Int64 arithmetic allocates every intermediate, and the generator
   runs on the hot path of every tag derivation.  [step] advances the
   state and leaves the mixed output in the [out_hi]/[out_lo] fields —
   no allocation at all — so integer-returning consumers (Rng.bits,
   Rng.bool, Rng.float) never touch Int64.  [next] wraps [step] for the
   boxed interface.  The limb formulation is bit-identical to the Int64
   reference — 64-bit add/xor/shift/multiply mod 2^64 — and is pinned by
   the published SplitMix64 vectors in the test suite. *)

type t = { mutable hi : int; mutable lo : int; mutable out_hi : int; mutable out_lo : int }

let mask32 = 0xFFFFFFFF

let split64_hi z = Int64.to_int (Int64.shift_right_logical z 32)
let split64_lo z = Int64.to_int (Int64.logand z 0xFFFFFFFFL)
let join64 hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let create seed = { hi = split64_hi seed; lo = split64_lo seed; out_hi = 0; out_lo = 0 }

(* (a * b) mod 2^32 for a, b < 2^32; 16-bit splits keep every native
   product below 2^49. *)
let mullo32 a b = (((a land 0xFFFF) * b) + (((a lsr 16) * (b land 0xFFFF)) lsl 16)) land mask32

(* Steele-Lea-Flood finalizer, fully scalar: two xor-shift-multiply rounds
   and a final xor-shift, on (hi, lo) halves threaded through [t.out_*]. *)
let mix_into t hi lo =
  (* z ^= z >>> 30 *)
  let lo = lo lxor ((lo lsr 30) lor ((hi land 0x3FFFFFFF) lsl 2)) in
  let hi = hi lxor (hi lsr 30) in
  (* z *= 0xBF58476D1CE4E5B9 *)
  let a0 = lo land 0xFFFF and a1 = lo lsr 16 in
  let p1 = (a0 * 0x1CE4) + (a1 * 0xE5B9) in
  let tm = (a0 * 0xE5B9) + ((p1 land 0xFFFF) lsl 16) in
  let new_hi =
    ((a1 * 0x1CE4) + (p1 lsr 16) + (tm lsr 32) + mullo32 lo 0xBF58476D + mullo32 hi 0x1CE4E5B9)
    land mask32
  in
  let lo = tm land mask32 in
  let hi = new_hi in
  (* z ^= z >>> 27 *)
  let lo = lo lxor ((lo lsr 27) lor ((hi land 0x7FFFFFF) lsl 5)) in
  let hi = hi lxor (hi lsr 27) in
  (* z *= 0x94D049BB133111EB *)
  let a0 = lo land 0xFFFF and a1 = lo lsr 16 in
  let p1 = (a0 * 0x1331) + (a1 * 0x11EB) in
  let tm = (a0 * 0x11EB) + ((p1 land 0xFFFF) lsl 16) in
  let new_hi =
    ((a1 * 0x1331) + (p1 lsr 16) + (tm lsr 32) + mullo32 lo 0x94D049BB + mullo32 hi 0x133111EB)
    land mask32
  in
  let lo = tm land mask32 in
  let hi = new_hi in
  (* z ^= z >>> 31 *)
  t.out_lo <- lo lxor ((lo lsr 31) lor ((hi land 0x7FFFFFFF) lsl 1));
  t.out_hi <- hi lxor (hi lsr 31)

(* state <- state + golden gamma (0x9E3779B97F4A7C15), with carry; the
   mixed output lands in [out_hi]/[out_lo]. *)
let step t =
  let lo = t.lo + 0x7F4A7C15 in
  t.hi <- (t.hi + 0x9E3779B9 + (lo lsr 32)) land mask32;
  t.lo <- lo land mask32;
  mix_into t t.hi t.lo

let out_hi t = t.out_hi
let out_lo t = t.out_lo

let next t =
  step t;
  join64 t.out_hi t.out_lo

let mix z =
  (* [mix] is stateless seed derivation, off the draw hot path; a fresh
     scratch cell per call keeps it race-free when parallel domains
     derive seeds concurrently (a shared cell would tear). *)
  let t = { hi = 0; lo = 0; out_hi = 0; out_lo = 0 } in
  mix_into t (split64_hi z) (split64_lo z);
  join64 t.out_hi t.out_lo

(* [create (mix (hi << 32 | lo))] in place, without building either
   Int64: the generator record doubles as the mix scratch cell, and the
   mixed seed is left readable in [out_hi]/[out_lo] until the first
   [step]. *)
let reseed_mixed t ~hi ~lo =
  mix_into t (hi land mask32) (lo land mask32);
  t.hi <- t.out_hi;
  t.lo <- t.out_lo

let of_mixed_halves ~hi ~lo =
  let t = { hi = 0; lo = 0; out_hi = 0; out_lo = 0 } in
  reseed_mixed t ~hi ~lo;
  t
