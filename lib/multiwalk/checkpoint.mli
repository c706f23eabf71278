(** Durable campaign run-log: crash-safe checkpoint/resume for
    {!Campaign.run}.

    The format is binary and little-endian: a 16-byte header, then one
    40-byte record per completed run, appended and flushed as soon as the
    run finishes.

    {v
    header   0  magic "LVRUNLOG"          record   0  run         int64
             8  version (1), int64                 8  seed        int64
                                                   16  iterations  int64
                                                   24  seconds     float64 bits
                                                   32  flags       u32
                                                   36  check       u32
    v}

    Bit 0 of [flags] is [solved]; the other bits are zero.  [check] is
    computed over the record's first 36 bytes a word at a time: starting
    from [h = 0x243F6A8885A308D3], each of the five words (the four
    int64s, then [flags]) is xor-ed into [h], which is then multiplied by
    [0x9E3779B97F4A7C15] modulo [2^64]; [check] is the top 32 bits of the
    last product.
    Every step is a bijection of the running word, so a record that differs
    in one field gives a different final word, and a change shows up in
    its top 32 bits except with probability about [2^-32].

    [seed] is the run's own derived seed ({!Run.seed}) and
    doubles as a consistency check on resume: a checkpoint written by a
    different campaign (different seed) is rejected rather than silently
    mixed in.  [seconds] is stored as its bits, so a resumed campaign
    reconstructs restored observations {e exactly} — the resumed dataset
    is byte-identical to an uninterrupted one (iteration values are
    deterministic per seed; seconds of restored runs are the genuinely
    measured ones from the interrupted campaign).

    Crash model: the process may be killed at any point.  Each append
    writes one record and flushes it to the OS, so completed runs survive.
    A file of [len] bytes holds [floor ((len - 16) / 40)] whole records;
    the torn bytes after them, left by a crash mid-append, are ignored on
    load and cut off before the next append.  A header torn short of its
    16 bytes (a crash as the log was created) is an empty log.  (Surviving
    power loss would additionally need an fsync per run; that cost is
    deliberately not paid.)

    Everything else raises [Failure] with a message that names the path:
    a whole record whose check fails or whose flags are unknown, a bad
    magic, an unknown version, a JSON Lines run-log written by an earlier
    version (it cannot be resumed), and a path that is not a regular file
    (checked before anything is read, so a device is never read). *)

type entry = {
  run : int;         (** run index within the campaign, [0 <= run < runs] *)
  seed : int;        (** the run's derived seed ({!Run.seed}) *)
  iterations : int;
  seconds : float;
  solved : bool;     (** [false] ⇒ censored at [iterations] *)
}

val entry_of_observation : run:int -> seed:int -> Run.observation -> entry
val observation_of_entry : entry -> Run.observation

val load : string -> entry list
(** The whole records in file order.  A missing file is an empty
    checkpoint.  Raises [Failure] as described above. *)

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
    [cols], allocating nothing per record, with the checks and the
    [Failure] of {!load} (on a [Failure], [cols] may hold the records
    before the bad one).  Records whose run lies outside [cols] are
    skipped; a later record for a run overrides an earlier one.  Returns
    the first in-range record, in file order, whose seed is not
    [Run.seed ~seed run], as [Some (run, seed)]; the caller decides what a
    foreign run means.  A missing file restores nothing. *)

type writer
(** An append handle; serialized internally, safe from any domain. *)

val with_writer : string -> (writer -> 'a) -> 'a
(** Open (creating if needed) for append, run, close.  Appends continue
    what {!load} reads: a torn tail is cut off the file first, and a log
    without a whole header is started over with one.  Raises [Failure] as
    {!load} does.  The log is closed in every case, by the rule of
    {!Lv_telemetry.File.write}: a write or flush that fails raises
    [Sys_error] whose message starts with [path]. *)

val append : writer -> entry -> unit
(** Encode, write one record, flush.  Safe from any domain. *)
