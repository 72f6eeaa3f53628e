(** The mega-sweep: a matrix run over protocol × k × fault-plan cells
    streaming [10^6+] seeded trials per invocation, for rare-event
    conformance at scales the 120-trial {!Conform} tier cannot reach.

    Two cell families share the runner:

    - {b clean} cells replay the {!Conform} registry (same promise-range
      instance distribution, same statement envelopes) at mega-trial
      scale, gating the observed failures against the paper's
      [1/poly(k)] bound via the one-sided 95% Wilson lower bound;
    - {b faulted} cells replay the {!Soak} semantics ({!Resilient}
      wrapper over an adversarial {!Commsim.Faults} link) and gate on
      the wrapper's rare-event bound
      [failures = 0 || rate <= attempts · 2^-check_bits].

    Affordability comes from the engine layer: trials stream through
    {!Engine.Pool.fold} into per-chunk accumulators (three ints plus a
    mergeable {!Obsv.Sketch} — never a per-trial list), protocol
    instances are memoized per domain in an {!Engine.Instance_cache},
    and codec buffers ride the {!Bitio.Pool} arenas.  All merges are
    exact (integer adds, max, bucket-pointwise sketch addition), so the
    report and its JSON are byte-identical at every domain count. *)

type config = {
  seed : int;
  trials_per_cell : int;
  universe_bits : int;  (** universe [2^universe_bits] *)
  protocols : string list;  (** clean cells: subset of {!Conform.entry_names} *)
  ks : int list;  (** clean-cell set sizes *)
  fault_protocols : string list;  (** faulted cells: subset of {!Soak.protocol_names} *)
  fault_ks : int list;  (** faulted-cell set sizes *)
  plans : (string * Commsim.Faults.link) list;  (** from {!Soak.plan_catalogue} *)
  budget_attempts : int;  (** {!Resilient} retry budget (faulted cells) *)
  check_bits : int;  (** initial fingerprint width (faulted cells) *)
}

(** 16 cells × 65_000 trials = 1_040_000 trials: clean
    [{eq, one-round, bucket, tree-r2} × {16, 64, 256}] plus faulted
    [{trivial, bucket} × {24} × {flip-1e-3, drop-2e-2}]. *)
val default : config

(** Seconds-scale: 3 cells × 400 trials, for the tier1 smoke gate. *)
val smoke : config

(** Trials the matrix will run ([cells × trials_per_cell]). *)
val total_trials : config -> int

(** The cell's bits distribution, read off its quantile sketch: the mean
    is exact ([sum/count] over ints), quantiles are sketch bucket upper
    bounds (1/16 relative error). *)
type bits_summary = {
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  min_bits : int;
  max_bits : int;
}

type cell = {
  kind : string;  (** ["clean"] or ["faulted"] *)
  protocol : string;
  plan : string option;  (** faulted cells only *)
  k : int;
  trials : int;
  failures : int;  (** trials whose output was not exactly [S ∩ T] *)
  degraded : int;  (** faulted cells: trials that fell back; clean: 0 *)
  error_limit : float;  (** the statement's (or wrapper's) error bound *)
  error_lower95 : float;  (** Wilson 95% lower bound on the true rate *)
  error_upper95 : float;  (** Wilson 95% upper bound on the true rate *)
  error_ok : bool;
  rounds_max : int;
  rounds_limit : int option;  (** clean cells only *)
  rounds_ok : bool;
  bits : bits_summary;
  bits_limit : float option;  (** clean cells: envelope on the mean *)
  bits_ok : bool;
  pass : bool;
}

type report = { config : config; cells : cell list; total_trials : int; pass : bool }

(** [clean_cell ?domains config entry ~k] runs one clean cell against an
    arbitrary {!Conform.entry} — exposed so tests can fabricate an entry
    whose envelope the trials must violate and assert the sweep flags it
    ([pass = false]). *)
val clean_cell : ?domains:int -> config -> Conform.entry -> k:int -> cell

(** [run ?domains ?sink config] runs the whole matrix.  With a [sink],
    each finished cell is recorded via
    {!Telemetry.record_cell} (prefix ["sweep"]) — sequentially, in matrix order, so
    the telemetry stream is also domain-count independent. *)
val run : ?domains:int -> ?sink:Telemetry.sink -> config -> report

(** Marker field ["bench": "sweep"] (checked by
    [intersect_cli check bench-sweep]). *)
val to_json : ?reproduce:string -> report -> Stats.Json.t

(** [of_json doc] decodes a [BENCH_sweep.json]-shaped report's raw
    counts (the config's [budget_attempts] and [check_bits]; per cell
    kind, protocol, plan, k, trials, failures, degraded, rounds_max and
    bits) and re-derives every other cell field with the rule {!run}
    uses: {!Conform.judge} for clean cells, {!Soak.rare_event_gate} for
    faulted ones.  [Error] names the field it could not read. *)
val of_json : Stats.Json.t -> (cell list, string) result

(** The report's cells with their derived [total_trials] and [pass] —
    the fields [intersect_cli check bench-sweep] compares against the
    stored ones. *)
val verdict_json : cell list -> Stats.Json.t

(** Human-readable cell table. *)
val summary : report -> string
