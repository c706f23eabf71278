(** The one writer of the pipeline's output files: datasets, prediction
    curves, validation reports and the engine's fit and validation
    artifacts. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] creates or truncates [path], runs [f] on a channel to
    it and closes it.  A write that fails, when [f] writes or when the
    last buffered bytes are flushed, raises [Sys_error] whose message
    starts with [path] (a full disk, for instance); an exception from [f]
    propagates.  The channel is closed in every case. *)
