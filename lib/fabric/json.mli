(** A minimal JSON tree, parser and deterministic printer — the wire
    substrate for {!Report} round-trips, scenario ids and the sweep
    engine's results documents (the container carries no JSON
    dependency).

    Printing is canonical: field order is preserved, floats use the
    shortest decimal that round-trips the exact double, and the output
    carries no timestamps — two identical trees print byte-identically,
    which is what the sweep determinism witness compares. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float_to_string : float -> string
(** Shortest decimal representation that parses back to the exact
    double ([1.5] prints ["1.5"], not ["1.5000000000000000"]). *)

val to_string : t -> string
(** Pretty-printed (2-space indent), trailing newline. Deterministic. *)

val to_string_compact : t -> string
(** Single-line rendering, no spaces. Deterministic. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document (trailing whitespace allowed). *)

(** {1 Accessors} (all total; [None] on shape mismatch) *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** [Int] is accepted and widened. *)

val to_str : t -> string option
val to_list : t -> t list option
