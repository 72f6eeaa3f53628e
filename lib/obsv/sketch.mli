(** A deterministic, mergeable quantile sketch over non-negative integers.

    Log-linear (HdrHistogram-style) bucketing: values [0..15] get exact
    unit buckets; above that each power-of-two octave is split into 16
    linear sub-buckets, bounding the relative error of any reported
    quantile by 1/16.  The bucket index is a pure integer function of the
    value and the merge is bucket-pointwise addition — associative and
    commutative — so per-domain sketches combined in any order (the
    {!Engine.Pool.fold} chunk merges vary with the domain count) export
    byte-identical JSON, satisfying the [cmp] determinism gate.

    Quantiles are reported as the inclusive upper bound of the bucket
    holding the requested rank, clamped to the observed maximum; with
    integer ranks [ceil(count * q)] the result is again independent of
    merge order. *)

type t

val create : unit -> t

(** [observe t v] records [v].  Negative values clamp to bucket 0 (they
    never occur in bit ledgers; the clamp keeps the function total). *)
val observe : t -> int -> unit

val count : t -> int
val sum : t -> int
val min_value : t -> int option
val max_value : t -> int option

(** [merge_into ~into src] adds [src]'s population to [into];
    associative and commutative. *)
val merge_into : into:t -> t -> unit

(** [quantile t ~per_mille] is the value at rank
    [ceil(count * per_mille / 1000)] (clamped to [[1, count]]), or [0] on
    an empty sketch.  [per_mille] is clamped to [[0, 1000]]. *)
val quantile : t -> per_mille:int -> int

val p50 : t -> int
val p90 : t -> int
val p99 : t -> int
val p999 : t -> int

(** Deterministic export: count/sum/min/max, the four canonical
    quantiles, and the non-empty buckets keyed ["<=upper"] in index
    order. *)
val to_json : t -> Stats.Json.t

(** {2 Bucket scheme} — exposed for tests and for documenting the
    export format. *)

(** Total number of addressable buckets (960: 16 unit buckets plus 59
    octaves of 16 sub-buckets, covering all positive 63-bit ints). *)
val bucket_count : int

(** [bucket_of v] is the index of the bucket holding [v]. *)
val bucket_of : int -> int

(** [bucket_upper i] is the largest value mapping to bucket [i]. *)
val bucket_upper : int -> int
