(** The schema catalogue for the repository's machine-checked JSON
    artifacts.

    Every committed artifact (the [BENCH_*.json] reports, the linter's
    report/SARIF exports, the [experiments.json] registry index) has a
    named schema mode here; [intersect_cli check <mode>] and the
    experiment registry ({!Registry}) validate against the same
    implementations, so "the artifact passes its [json_check] mode" (the
    registry's frontmatter field) means the same thing on the command
    line and inside [experiments verify].

    Checks are pure string -> result functions over {!Stats.Json}; they
    never touch the filesystem. *)

(** Every known mode name, sorted: ["bench-chaos"], ["bench-hotpath"],
    ["bench-sweep"], ["bench-telemetry"], ["experiments"],
    ["lint-report"], ["lint-sarif"]. *)
val modes : string list

(** The subset of {!modes} that validates committed [BENCH_*.json]
    artifacts — the only modes an experiment entry may name in its
    [json_check] frontmatter field. *)
val bench_modes : string list

(** [check ~mode contents] validates [contents] against the named schema.
    [Error] carries a one-line diagnosis (unknown modes are an [Error]
    too, never an exception). *)
val check : mode:string -> string -> (unit, string) result
