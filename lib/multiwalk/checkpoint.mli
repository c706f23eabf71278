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

    [load] reads the whole file at once and decodes it with one cursor:
    keys are compared a word at a time, integers are parsed in the pass
    that scans them, and [seconds] is read in place by
    {!Lv_telemetry.Json.read_float} (exact: Clinger's fast path, then an
    Eisel–Lemire step over a table of 128-bit powers of ten for exponents
    -342 to 308, and [float_of_string_opt] for any token those cannot
    decide).  Each line's fields go into the cursor, not into a fresh
    entry or token string, so {!restore} allocates next to nothing per
    line; [load] builds its entries from the cursor.  The lines it
    accepts, the torn-last-line rule and the line-numbered [Failure] are
    those of the earlier line-by-line decoder, which the tests keep as the
    reference. *)

type columns = {
  iterations : int array;
  seconds : float array;
  solved : bool array;
  restored : bool array;  (** [restored.(r)]: run [r] was read from a log *)
}
(** One campaign's runs as columns indexed by run: what {!restore} reads
    from a log, and what {!Campaign.run} fills in for the runs it
    executes. *)

val columns : runs:int -> columns
(** Columns for [runs] runs, none restored. *)

val restore : string -> seed:int -> columns -> (int * int) option
(** [restore path ~seed cols] decodes the log at [path] straight into
    [cols], with the decoder, the torn-final-line rule and the [Failure]
    text of {!load} ([load] is the same decoder collecting entries).
    Entries whose run lies outside [cols] are skipped; a later entry for a
    run overrides an earlier one.  Returns the first in-range entry, in
    file order, whose seed is not [seed + run], as [Some (run, seed)]; the
    caller decides what a foreign run means.  A missing file restores
    nothing. *)

type writer
(** An append handle; serialized internally, safe from any domain. *)

val with_writer : string -> (writer -> 'a) -> 'a
(** Open (creating if needed) for append, run, always close.  Appends
    continue what {!load} reads: a torn final line is cut off the file
    first, and a final entry that lacks its newline gets one.  Raises
    [Failure] as {!load} does on a file corrupt before its last line. *)

val append : writer -> entry -> unit
(** Serialize, write one line, flush.  Safe from any domain. *)
