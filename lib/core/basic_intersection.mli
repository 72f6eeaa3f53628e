(** Protocol Basic-Intersection (Lemma 3.3).

    The parties exchange set sizes, then exchange [bits]-wide hash tags of
    their elements under a shared random function, and each keeps the
    elements whose tag appears on the other side:
    [S' = h^-1(h(T)) ∩ S] and [T' = h^-1(h(S)) ∩ T].

    Guarantees (Lemma 3.3):
    + [S' ⊆ S] and [T' ⊆ T];
    + if [S ∩ T = ∅] then ... [S' ∩ T' = ∅] with probability 1 — in this
      tag-based form the stronger statement holds that no element of [S']
      pairs with an equal element of [T'];
    + [S ∩ T ⊆ S'] and [S ∩ T ⊆ T'] with probability 1, and with
      probability at least [1 - failure], [S' = T' = S ∩ T].

    Four messages / four rounds, [O((|S| + |T|) * (log (|S| + |T|) +
    log (1 / failure)))] bits.

    The [write_tags]/[read_tag_keys]/[filter_by_tags] helpers expose the
    message bodies so the tree protocol (Section 3.3) can batch many
    instances of this protocol into single messages; {!tags} is the tag
    set they share with {!One_round_hash} and the incremental sync. *)

(** Tag width needed so that [m] elements produce no cross collisions except
    with probability [failure]. *)
val tag_bits : m:int -> failure:float -> int

(** Append the tags of all elements of a set. *)
val write_tags : Bitio.Bitbuf.t -> Strhash.fn -> Iset.t -> unit

(** A set of tags of one width, held as sorted lane ints
    ({!Strhash.lanes}) with lookup by binary search: no bit string or
    hash table per tag, at any width. *)
type tags

(** Read [count] tags of [bits] bits each into a tag set. *)
val read_tag_keys : Bitio.Bitreader.t -> bits:int -> count:int -> tags

(** Keep the elements whose tag occurs in the other party's tag set.
    [Strhash.bits fn] must be the set's width. *)
val filter_by_tags : Strhash.fn -> tags -> Iset.t -> Iset.t

(** [mem_tag t fn x]: does [Strhash.apply_int fn x] occur in [t]? *)
val mem_tag : tags -> Strhash.fn -> int -> bool

(** The tags of this side's own elements, as a set. *)
val tags_of_set : Strhash.fn -> Iset.t -> tags

(** [read_members mine reader ~count] reads [count] tags of [mine]'s
    width: the tag set they form, and for each tag in arrival order
    whether it occurs in [mine]. *)
val read_members : tags -> Bitio.Bitreader.t -> count:int -> tags * bool array

(** An empty tag set, to be filled by {!read_tags_into}. *)
val tags_create : unit -> tags

(** [read_tags_into t reader ~bits ~count] is {!read_tag_keys} into the
    storage of [t], replacing its contents; it allocates only when [t]
    has never held this many lane ints ([count + 1] tags' worth).  For hot paths that read one tag
    set per item and drop it straight after use. *)
val read_tags_into : tags -> Bitio.Bitreader.t -> bits:int -> count:int -> unit

(** Standalone 4-round runners ([failure] in (0, 1)).  Both sides must use
    generators in identical states. *)
val run_alice : Prng.Rng.t -> failure:float -> Commsim.Transport.t -> Iset.t -> Iset.t

(** Bob's side of {!run_alice}; same [failure] and generator contract. *)
val run_bob : Prng.Rng.t -> failure:float -> Commsim.Transport.t -> Iset.t -> Iset.t

(** Protocol record (runs the standalone form; sandwich contract holds). *)
val protocol : failure:float -> Protocol.t
