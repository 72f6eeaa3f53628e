(** Shared-randomness hash tags of arbitrary width.

    A [fn] is a random function producing [bits]-bit tags, built from
    independent affine "lanes" over the Mersenne prime [p = 2^61 - 1]
    (strings are first collapsed by a polynomial fingerprint over [p]).
    Guarantees, for inputs [x <> y]:

    - tags of equal inputs are always equal (one-sided);
    - tags collide with probability at most
      [2^-bits + length / 2^61 + 2^(bits mod 48 ... )] — within a small
      constant factor of the ideal [2^-bits], which is all Fact 3.5 and
      Lemma 3.3 need.

    Both parties construct the same [fn] by passing {!Prng.Rng.t} values in
    identical states (e.g. [Rng.with_label shared "stage3/node17"]); [create]
    consumes from the generator. *)

type fn

(** [create rng ~bits] draws a tag function.  [bits >= 1]; any width is
    supported (wide tags use several lanes). *)
val create : Prng.Rng.t -> bits:int -> fn

(** [redraw fn rng ~bits] turns [fn] in place into the function
    [create rng ~bits] would return: the same draws from [rng] in the same
    order, and the same tags from then on.  Allocates nothing unless
    [bits] needs more lanes than [fn] has held before.  For hot paths that
    draw one function per item and drop it straight after use. *)
val redraw : fn -> Prng.Rng.t -> bits:int -> unit

(** Tag width in bits, as requested at {!create} or the last {!redraw}. *)
val bits : fn -> int

(** Tag of a bit string. *)
val apply : fn -> Bitio.Bits.t -> Bitio.Bits.t

(** Tag of an integer in [\[0, 2^60)]. *)
val apply_int : fn -> int -> Bitio.Bits.t

(** [write fn buf payload] appends [apply fn payload] directly to [buf] —
    the same [bits fn] bits, with no intermediate tag allocation.  The
    allocation-lean path for assembling tag vectors. *)
val write : fn -> Bitio.Bitbuf.t -> Bitio.Bits.t -> unit

(** [write_int fn buf x] appends [apply_int fn x] directly to [buf]. *)
val write_int : fn -> Bitio.Bitbuf.t -> int -> unit

(** [matches fn reader payload] consumes exactly [bits fn] bits from
    [reader] (a peer's tag, as written by {!write} or {!apply}) and tests
    them against this side's tag of [payload], without materialising
    either tag.  The reader advances fully even on a mismatch, so framing
    is position-identical to a read-then-compare round trip. *)
val matches : fn -> Bitio.Bitreader.t -> Bitio.Bits.t -> bool

(** One-shot conveniences (draw the function and apply it). *)
val tag : Prng.Rng.t -> bits:int -> Bitio.Bits.t -> Bitio.Bits.t

(** One-shot {!apply_int} (draw the function and tag the integer). *)
val tag_int : Prng.Rng.t -> bits:int -> int -> Bitio.Bits.t
