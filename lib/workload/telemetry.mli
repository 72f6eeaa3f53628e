(** Fleet-telemetry plumbing for the workload harnesses.

    A {!sink} accumulates what a running campaign (chaos, soak, the CLI's
    [health]/[top]) learns about its session fleet: per-outcome counters
    and bit-spend {!Obsv.Sketch}es in a dedicated registry (under the
    {!Obsv.Health} metric-name contract), an event-time
    {!Obsv.Snapshot} stream, and the post-mortems harvested from
    per-session flight recorders.  Sinks are filled sequentially in
    deterministic trial order, so {!jsonl} is byte-identical run-to-run
    and across domain counts.

    The overhead bench ([run_overhead]) measures the hot-path cost of
    the telemetry layer itself — sketch + recorder + fleet counters on
    vs off over identical seeded sessions — and is the source of the
    regression-gated [BENCH_telemetry.json]. *)

type sink

val create_sink : unit -> sink

(** Sessions recorded so far — the stream's event-time axis. *)
val sessions : sink -> int

(** [record_report sink ~deadline_bits r ~wrong] folds one session report
    into the fleet registry: outcome/failure counters, spend sketches,
    and the deadline gauge (kept at the maximum across sessions).
    Advances event time by one. *)
val record_report : sink -> deadline_bits:int -> Session.Machine.report -> wrong:bool -> unit

(** Attach a flight-recorder dump at the current event time. *)
val add_postmortem : sink -> Stats.Json.t -> unit

(** Snapshot the fleet registry at the current event time and append it
    to the stream. *)
val snapshot : sink -> Obsv.Snapshot.t

val last_snapshot : sink -> Obsv.Snapshot.t option
val postmortems : sink -> (int * Stats.Json.t) list

(** The JSONL telemetry stream: snapshot lines, each followed by a
    derived-rates line, merged with post-mortem lines on the event-time
    axis. *)
val jsonl : sink -> string list

(** Cell-level recording for the trial harnesses ({!Soak} uses prefix
    ["soak"], {!Sweep} ["sweep"]): bumps the [prefix/trials],
    [prefix/exact] and [prefix/degraded] counters, folds the cell's
    bit-cost sketch into [prefix/bits] ({!Obsv.Metrics.merge_sketch}),
    advances event time by [trials] and closes the cell with a
    snapshot. *)
val record_cell :
  sink -> prefix:string -> trials:int -> exact:int -> degraded:int -> sketch:Obsv.Sketch.t -> unit

(** {!Obsv.Health.evaluate} over the latest snapshot ([None] before the
    first snapshot). *)
val health : ?slos:Obsv.Health.slos -> sink -> Obsv.Health.report option

(** {2 Overhead bench} *)

type overhead_config = { seed : int; k : int; universe_bits : int; sessions : int }

(** k=1024, 24 sessions — the configuration [BENCH_telemetry.json] gates. *)
val overhead_default : overhead_config

(** k=256, 8 sessions — seconds-scale for tier1. *)
val overhead_smoke : overhead_config

type pass = {
  ns_per_session : float;
  spent_bits : int;  (** summed over sessions — deterministic *)
  completed : int;  (** sessions that completed — deterministic *)
}

type overhead_report = {
  config : overhead_config;
  off : pass;  (** telemetry disabled (ambient defaults) *)
  on_ : pass;  (** fleet registry + per-session recorder + sketches *)
  ratio : float;  (** [on_.ns_per_session / off.ns_per_session] *)
  deterministic_match : bool;
      (** telemetry must not perturb the sessions: spend and outcomes
          agree between the passes *)
}

(** Run both passes over identical seeded clean-link sessions (both
    verify results against the precomputed truth, so telemetry is the
    only asymmetry). *)
val run_overhead : overhead_config -> overhead_report

(** The report of two passes, timings taken as {!Stats.Json.printed}
    gives them: {!run_overhead} and {!overhead_of_json} share it, so a
    written report re-derives exactly from its own file. *)
val overhead_of_passes : overhead_config -> off:pass -> on_:pass -> overhead_report

(** Marker field ["bench": "telemetry"] (checked by
    [intersect_cli check bench-telemetry]). *)
val overhead_json : ?reproduce:string -> overhead_report -> Stats.Json.t

(** The on/off ratio bound the committed [BENCH_telemetry.json] is held
    to (1.25); live runs on shared machines pass their own [--max-ratio]. *)
val committed_max_ratio : float

(** The overhead verdict, shared by the [telemetry] command and the
    [bench-telemetry] check: the deterministic fields must agree between
    the passes and, given [max_ratio], the ratio must not exceed it. *)
val overhead_violations : ?max_ratio:float -> overhead_report -> string list

(** [overhead_of_json doc] decodes the config and both passes of a
    [BENCH_telemetry.json]-shaped report and recomputes [ratio] and
    [deterministic_match] with the code {!run_overhead} uses. *)
val overhead_of_json : Stats.Json.t -> (overhead_report, string) result

val overhead_summary : overhead_report -> string
