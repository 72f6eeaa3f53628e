(** Shared-randomness hash tags of arbitrary width.

    A [fn] is a random function producing [bits]-bit tags, built from
    independent affine "lanes" over the Mersenne prime [p = 2^61 - 1]
    (strings are first collapsed by a polynomial fingerprint over [p]).
    Guarantees, for inputs [x <> y]:

    - tags of equal inputs are always equal (one-sided);
    - with [L = ceil (bits / 48)] lanes and [D] the larger number of
      24-bit chunks in [x] or [y] ([D = 0] for integer inputs), tags
      collide with probability at most
      [2D/p + 2^-bits * (1 + 2^-11)^L] — within a small constant factor
      of the ideal [2^-bits], which is all Fact 3.5 and Lemma 3.3 need.

    Derivation.  {e Fingerprint:} a string of [n] bits folds to
    [F(t) = (n+1) t^D + sum_j (c_j + 1) t^(D-j)] at the random point [t].
    For [x <> y] the difference [F_x - F_y] is a nonzero polynomial of
    degree at most [D] (equal lengths differ in some chunk's coefficient,
    unequal ones in the leading coefficient [n + 1] or in the degree), so
    it has at most [D] roots; [t = 2 + (u mod (p-4))]
    for [u] uniform on [\[0, p)] takes each value with probability at
    most [2/p], so the folded values collide with probability at most
    [2D/p].  Integers below [2^60 < p] are their own folded values.
    {e Lanes:} given distinct folded values [v <> v'], lane [i] maps
    [v] to [h = a v + b mod p] and keeps its low [w_i <= 48] bits.  Were
    [a] uniform on [\[1, p)] and [b] on [\[0, p)], [(h(v), h(v'))] would
    be uniform over ordered pairs of distinct residues, and since each
    residue class mod [2^w_i] holds at most [ceil (p / 2^w_i)] residues,
    the low bits would agree with probability at most
    [(ceil (p / 2^w_i) - 1) / (p - 1) <= 2^-w_i * p / (p - 1)].  The
    drawn [a = 1 + (u mod (p-1))] puts an extra [1/p] on [a = 1], which
    adds at most [1/p].  So lane [i] agrees with probability at most
    [2^-w_i + 2/p <= 2^-w_i (1 + 2^(w_i - 59)) <= 2^-w_i (1 + 2^-11)],
    and the lanes' independent draws multiply these over the [L] lanes,
    whose widths sum to [bits].

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

(** [write_range fn buf payload ~pos ~len] appends the tag of the slice
    [pos .. pos + len - 1] of [payload], exactly as {!write} would for
    that slice copied out on its own.  For payloads that are ranges of
    one larger buffer. *)
val write_range : fn -> Bitio.Bitbuf.t -> Bitio.Bits.t -> pos:int -> len:int -> unit

(** [matches_range fn reader payload ~pos ~len] is {!matches} against the
    slice [pos .. pos + len - 1] of [payload]; the reader advances by
    [bits fn] bits. *)
val matches_range : fn -> Bitio.Bitreader.t -> Bitio.Bits.t -> pos:int -> len:int -> bool

(** {2 Tags as lane ints}

    A [bits]-wide tag is [lanes ~bits] lanes written in order, lane [i]
    being [lane_width_of ~bits i <= 48] bits read with
    {!Bitio.Bitreader.read_bits}.  Two tags are equal iff their lane ints
    are, so tag sets can be kept as ints with no bit strings. *)

(** Number of lanes in a [bits]-wide tag. *)
val lanes : bits:int -> int

(** Width of lane [i] of a [bits]-wide tag. *)
val lane_width_of : bits:int -> int -> int

(** [int_lane fn i x] is lane [i] of [apply_int fn x], as an int. *)
val int_lane : fn -> int -> int -> int

(** One-shot conveniences (draw the function and apply it). *)
val tag : Prng.Rng.t -> bits:int -> Bitio.Bits.t -> Bitio.Bits.t

(** One-shot {!apply_int} (draw the function and tag the integer). *)
val tag_int : Prng.Rng.t -> bits:int -> int -> Bitio.Bits.t
