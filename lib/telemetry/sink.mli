(** Pluggable event sinks.

    A sink is where telemetry events go.  All sinks are safe to share
    across OCaml 5 domains (writes are mutex-protected); the null sink is
    the zero-overhead default — callers test {!is_null} before building an
    event, so on it nothing is built. *)

type t

val null : t
(** Drops everything; holds no state, takes no locks. *)

val memory : unit -> t
(** Accumulates events in memory; read them back with {!events}. *)

val console : unit -> t
(** Pretty one-line-per-event rendering on [stderr], flushed per event, so
    it composes with data written to [stdout]. *)

val jsonl : string -> t
(** JSON Lines file sink (one {!Event.to_json} object per line).  Opens the
    file immediately (truncating); buffered until {!close}. *)

val tee : t -> t -> t
(** Both sinks receive every event.  [tee null s] collapses to [s], so
    composing optional sinks keeps the null fast path. *)

val is_null : t -> bool
(** [true] only for sinks that drop everything — hot paths use this to skip
    building field lists altogether. *)

val emit : t -> path:string -> fields:(string * Json.t) list -> Event.kind -> unit
(** Stamp an event with {!Clock.elapsed} and record it at the fixed [path]
    (no span nesting is applied): the one way events enter a sink.  Does
    nothing on the null sink, but the caller has already built [fields]
    and [kind]: guard with {!is_null} when building them costs. *)

val events : t -> Event.t list
(** Events accumulated so far, oldest first.  Empty for non-memory sinks. *)

val close : t -> unit
(** Flush buffered output; closes file channels opened by {!jsonl}. *)
