(** Monotonic-clock spans with domain-local nesting.

    [run sink ~name f] times [f ()] on the monotonic clock and emits one
    {!Event.kind.Span} event when it returns (or raises — then with an
    [error=true] field).  While [f] runs, [name] is pushed on a
    domain-local stack, so spans opened inside [f] get paths like
    ["outer/inner"].  On the null sink [run] is exactly [f ()]: no clock
    read, no stack push, no state. *)

val run :
  Sink.t ->
  name:string ->
  ?fields:(unit -> (string * Json.t) list) ->
  (unit -> 'a) ->
  'a
(** The [fields] thunk is evaluated after [f] completes, so it can read
    results out of mutable cells filled by [f]. *)

val record :
  Sink.t ->
  start:int64 ->
  path:string ->
  ?fields:(string * Json.t) list ->
  unit ->
  unit
(** Emit one {!Event.kind.Span} at the fixed, pre-resolved [path] whose
    duration is the monotonic time elapsed since [start]
    ({!Clock.now_ns}).  This is the building block for spans measured on a
    pool worker: the worker's domain-local nesting stack is empty, so the
    enclosing path must be baked in by the caller rather than recovered
    from nesting.  No-op on the null sink — but the [fields] list is built
    by the caller, so guard with {!Sink.is_null} when field construction
    matters. *)

val current_path : unit -> string
(** The calling domain's open-span path, [""] when none (for tests). *)

val path_of : string -> string
(** [name] prefixed with the calling domain's open-span path. *)
