(** The one writer of the pipeline's output files: datasets, prediction
    curves, validation reports, the engine's fit and validation artifacts
    and the campaign run-log. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] creates or truncates [path], runs [f] on a channel to
    it and closes it, by the rule of {!with_channel}. *)

val with_channel : string -> out_channel -> (out_channel -> 'a) -> 'a
(** [with_channel path oc f] runs [f oc] on [oc], a channel open on
    [path], and closes it.  A write that fails, when [f] writes or when
    the last buffered bytes are flushed, raises [Sys_error] whose message
    starts with [path] (a full disk, for instance); an exception from [f]
    propagates.  The channel is closed in every case. *)
