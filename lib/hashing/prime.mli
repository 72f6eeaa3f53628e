(** Primality testing and prime search for the Carter–Wegman family of
    Fact 2.2. *)

(** Deterministic Miller–Rabin, exact for all [0 <= n < 2^62]. *)
val is_prime : int -> bool

(** [next_prime n] is the smallest prime [>= n].  [n] must be at least 2 and
    small enough that the result stays below [2^62]. *)
val next_prime : int -> int

(** [random_prime rng ~below] is a uniformly random prime in [\[2, below)];
    [below > 2] and there must be at least one such prime.  Sampling is by
    rejection, so the distribution is exactly uniform over qualifying
    primes. *)
val random_prime : Prng.Rng.t -> below:int -> int
