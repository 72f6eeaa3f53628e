(** Hot-path regression bench over the registered two-party protocols.

    Each cell is one [(protocol, k)] pair run on seeded workloads:
    wall-clock ns/run and allocation bytes/run are the tracked performance
    trajectory (BENCH_hotpath.json), while total bits, message and round
    counts are deterministic and must reproduce byte-for-byte for a fixed
    seed — the transcript-invariance contract every perf PR is gated on. *)

type cell = {
  protocol : string;
  k : int;
  trials : int;
  reps : int;  (** timed sweeps over the trial set; fixed per [k] *)
  ns_per_run : float;
  alloc_bytes_per_run : float;
  total_bits : int;  (** summed over the seeded trials — deterministic *)
  messages : int;  (** summed over the seeded trials — deterministic *)
  rounds : int;  (** summed over the seeded trials — deterministic *)
}

type report = {
  seed : int;
  universe_bits : int;
  trials : int;
  ks : int list;
  cells : cell list;
}

type config = {
  seed : int;
  universe_bits : int;
  trials : int;
  ks : int list;
  protocols : string list;
}

(** The registered suite, in run order. *)
val protocol_names : string list

(** The protocol a suite name denotes, at its benchmarked
    parameterization.  Raises [Invalid_argument] on unknown names.  Used
    by the hot-path tests to run the exact registered suite. *)
val protocol_of : name:string -> k:int -> Intersect.Protocol.t

(** Full sweep: every registered protocol at k ∈ 64, 1024, 4096 (the
    enumerative-codec cell is capped at k = 256; its bignum unranking is
    super-linear in k). *)
val default : config

(** Seconds-scale subset (k = 64 only) for the tier-1 gate. *)
val smoke : config

(** Run the configured sweep.  Raises [Invalid_argument] on unknown
    protocol names. *)
val run : config -> report

(** The BENCH_hotpath.json document. *)
val to_json : report -> Stats.Json.t

(** Only the seeded fields (bits, messages, rounds, counts): two runs of
    the same config must produce byte-identical renderings of this. *)
val deterministic_json : report -> Stats.Json.t

val summary : report -> string

(** [of_json doc] decodes a [BENCH_hotpath.json]-shaped report and holds
    it to the format's rules: every field present and typed, timings and
    deterministic fields positive, and [k] increasing within each
    protocol.  [Error] names the first field or cell that breaks one. *)
val of_json : Stats.Json.t -> (report, string) result

type violation = { cell : string; field : string; baseline : float; current : float }

val violation_message : violation -> string

(** [compare_baseline ~tolerance report baseline] checks [report] against
    a decoded committed baseline: deterministic fields must match
    exactly; [ns_per_run] and [alloc_bytes_per_run] may exceed the
    baseline by at most a factor of [1 + tolerance].  Returns the number
    of compared cells (cells missing from the baseline are skipped, so
    smoke subsets compare cleanly) and the violations. *)
val compare_baseline : tolerance:float -> report -> report -> int * violation list
