(** Durable campaign run-log: crash-safe checkpoint/resume for
    {!Campaign.run}.

    The format is JSON Lines, one completed run per line, appended and
    flushed as soon as the run finishes:

    {v
    {"run":0,"seed":100,"iterations":5213,"seconds":0.0071,"solved":true}
    {"run":1,"seed":101,"iterations":812,"seconds":0.0012,"solved":false}
    v}

    [seed] is the run's own derived seed ([campaign seed + run index]) and
    doubles as a consistency check on resume: a checkpoint written by a
    different campaign (different seed) is rejected rather than silently
    mixed in.  Floats are written with round-trip precision, so a resumed
    campaign reconstructs restored observations {e exactly} — the resumed
    dataset is byte-identical to an uninterrupted one (iteration values
    are deterministic per seed; seconds of restored runs are the genuinely
    measured ones from the interrupted campaign).

    Crash model: the process may be killed at any point.  Each append is
    flushed to the OS, so completed runs survive; a line torn by a crash
    mid-append is detected on load and dropped.  (Surviving power loss
    would additionally need an fsync per run; that cost is deliberately
    not paid.) *)

type entry = {
  run : int;         (** run index within the campaign, [0 <= run < runs] *)
  seed : int;        (** the run's derived seed ([campaign seed + run]) *)
  iterations : int;
  seconds : float;
  solved : bool;     (** [false] ⇒ censored at [iterations] *)
}

val entry_of_observation : run:int -> seed:int -> Run.observation -> entry
val observation_of_entry : entry -> Run.observation

val load : string -> entry list
(** Entries in file order.  A missing file is an empty checkpoint.  A
    malformed {e final} line (torn write) is dropped; malformed earlier
    lines raise [Failure] with the path and line number.  Empty lines are
    skipped.

    The decoder accepts exactly the lines {!append} writes: the five keys
    in the order shown above, no whitespace anywhere, nothing after the
    closing brace.  [run], [seed] and [iterations] must be integer tokens
    ([-?[0-9]+] within [int] range); [seconds] is any JSON number
    ([0] reads as [0.]); [solved] is [true] or [false].  Everything else
    is malformed, including [null], reordered, missing or extra keys,
    any whitespace and trailing garbage.  Every line it accepts decodes
    to the entry that a generic JSON parse of the line would give.

    [load] reads the whole file at once and decodes it with one cursor,
    parsing integers in place; the lines it accepts, the torn-last-line
    rule and the line-numbered [Failure] are those of the earlier
    line-by-line decoder, which the tests keep as the reference. *)

type writer
(** An append handle; serialized internally, safe from any domain. *)

val with_writer : string -> (writer -> 'a) -> 'a
(** Open (creating if needed) for append, run, always close. *)

val append : writer -> entry -> unit
(** Serialize, write one line, flush.  Safe from any domain. *)
