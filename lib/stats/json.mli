(** Minimal JSON emission and parsing for machine-readable reports (no
    dependencies).  Numbers that are not finite are emitted as [null] so
    the output is always valid JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [printed f] is the float a reader parses back from [f]'s rendering
    (floats render as [%.12g]; non-finite [f] is returned unchanged).  A
    report field derived from floats it also stores must be computed
    from their [printed] values, or a reader recomputing it from the
    file can disagree in the last digit. *)
val printed : float -> float

(** Compact (single-line) rendering with full string escaping. *)
val to_string : t -> string

(** Like {!to_string} with two-space indentation, for files meant to be
    read by humans too. *)
val to_string_pretty : t -> string

(** [of_string s] parses one JSON value (RFC 8259, minus surrogate-pair
    [\u] escapes, which no report in this repository emits) followed only
    by whitespace.  Integral numbers that fit a native [int] parse as
    {!Int}; everything else numeric parses as {!Float}. *)
val of_string : string -> (t, string) result

(** [member key v] is field [key] of object [v] ([None] for missing keys
    and non-objects). *)
val member : string -> t -> t option

val to_list_opt : t -> t list option
val to_int_opt : t -> int option

(** {!Int} widens to float here, mirroring the emitter's number split. *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option

(** {2 Typed decoding}

    The readers behind [intersect_cli check bench-*]: each harness decodes
    its own report with these, re-derives the verdict, and {!diff}s the
    re-rendered report against the input. *)

(** [field key conv v] is [conv] applied to field [key] of object [v];
    the error names [key] when it is missing or [conv] rejects it. *)
val field : string -> (t -> 'a option) -> t -> ('a, string) result

(** [expect key want v] checks that field [key] of [v] is exactly [want]
    (a report's marker, e.g. ["bench": "sweep"]). *)
val expect : string -> t -> t -> (unit, string) result

(** [items key decode v] decodes every element of the non-empty list
    field [key] of [v]; an element's error is prefixed ["key[i]: "]. *)
val items : string -> (t -> ('a, string) result) -> t -> ('a list, string) result

(** [diff ~expected actual] walks every field of [expected] (recursing
    into objects and equal-length lists) and returns the first leaf whose
    rendering differs from [actual]'s, as ["cells[3].pass is true,
    recomputed false"] ([None] when all agree).  Fields only [actual]
    has are ignored.  Comparing renderings rather than parsed floats
    makes a stored [%.12g] number equal to the value it was printed
    from; a derived float matches its recomputation only when both are
    computed from {!printed} inputs. *)
val diff : expected:t -> t -> string option
