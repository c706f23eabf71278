(** Content-addressed artifact store: the cache that makes re-running a
    scenario free.

    Every cacheable pipeline stage derives a {!key} from everything that
    determines its output — the stage name, its parameters (rendered as
    sorted [key=value] pairs), the seed, and a {!code_version} salt bumped
    whenever the serialized formats or the producing algorithms change —
    and stores its result at [<dir>/<stage>-<key>.<ext>] using the
    pipeline's existing serializations (the campaign run-log JSONL, fit
    reports as JSON, prediction curves as CSV).  Same scenario, same
    code ⇒ same key ⇒ the stage is served from disk; any parameter change
    ⇒ a different key ⇒ a clean recompute, never a stale read.

    Lookups are counted and, with a live telemetry sink, published as
    running ["engine.cache.hit"] / ["engine.cache.miss"] counters.  Writes
    are atomic (temp file + rename), and an artifact that fails to load
    (torn write, foreign file) is treated as a miss and silently
    recomputed — the cache can never make a run fail. *)

type t

val code_version : string
(** Salt folded into every {!key}.  Bump it when an artifact format or a
    stage's algorithm changes: old artifacts then miss instead of being
    deserialized wrongly or replaying stale results. *)

val create : ?telemetry:Lv_telemetry.Sink.t -> dir:string -> unit -> t
(** Open (creating, recursively) the store directory. *)

val dir : t -> string

val key : stage:string -> params:(string * string) list -> seed:int -> string
(** Stable content hash (hex) of [(code_version, stage, seed, params)];
    [params] order does not matter (pairs are sorted). *)

val path : t -> stage:string -> key:string -> ext:string -> string
(** Where an artifact for this key lives: [<dir>/<stage>-<key>.<ext>]. *)

val hits : t -> int
val misses : t -> int
(** Lookup counters since {!create}. *)

val with_cache :
  t ->
  stage:string ->
  key:string ->
  ext:string ->
  load:(string -> 'a) ->
  save:('a -> string -> unit) ->
  (unit -> 'a) ->
  'a
(** [with_cache t ~stage ~key ~ext ~load ~save compute]: if the artifact
    file exists and [load] succeeds on it, count a hit and return the
    loaded value; otherwise count a miss, run [compute], persist its
    result atomically with [save], and return it.  Exceptions from
    [compute] and [save] propagate (nothing is cached); exceptions from
    [load] turn into a recompute that overwrites the bad artifact, except
    [Out_of_memory], [Stack_overflow] and [Sys.Break], which propagate. *)

val mkdir_p : string -> unit
(** Create a directory and its parents ([mkdir -p]); raises [Unix_error]
    when a path component exists as a non-directory. *)
