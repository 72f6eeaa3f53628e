(** Pairwise-independent hashing [h(x) = ((a*x + b) mod p) mod range] over a
    prime field [p >= universe] — the explicit [O(log n)]-random-bit family
    behind Fact 2.2. *)

type t

(** [create rng ~universe ~range] draws a random function
    [\[0, universe) -> \[0, range)] from the family. *)
val create : Prng.Rng.t -> universe:int -> range:int -> t

val hash : t -> int -> int
val range : t -> int

(** Number of random bits needed to describe the drawn function — the
    in-band cost of shipping it in the private-randomness model. *)
val seed_bits : t -> int

(** The prime modulus actually chosen. *)
val modulus : t -> int
