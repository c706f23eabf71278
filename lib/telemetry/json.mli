(** Minimal JSON tree, encoder and parser — just enough for telemetry
    events and summaries, with no external dependency.  Floats are encoded
    with round-trip precision ([%.17g]); [nan]/[inf] become [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact one-line encoding (suitable for JSON Lines). *)

val of_string : string -> t
(** Parses a complete JSON document.  Raises {!Parse_error} on malformed
    input or trailing garbage.  A number token is the longest run of
    [0-9+-.eE]: without ['.'], ['e'] or ['E'] it is an [Int] when
    [int_of_string_opt] reads it, and otherwise a [Float] with the bits
    [float_of_string_opt] gives it, so every finite float {!to_string} writes
    reads back exactly. *)

(** {1 Accessors} — shape-tolerant lookups returning [None] on mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
(** Accepts both [Float] and [Int] payloads. *)

val to_int : t -> int option
val to_bool : t -> bool option
val to_str : t -> string option

(** {1 Decoding} — the inverse of {!to_string}, for the fit and validation
    artifacts.  Each raises [Failure] on a missing key or a value of
    another shape. *)

val field : string -> t -> t
(** [field key obj] is the value at [key] of an object. *)

val float : t -> float
(** A number, [Int] included.  [Null] reads as [nan]: {!to_string} writes
    nan and the infinities as [null]. *)

val int : t -> int
val bool : t -> bool
val string : t -> string
val list : t -> t list
val fields : t -> (string * t) list
