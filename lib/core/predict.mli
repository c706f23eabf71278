(** End-to-end prediction and validation (paper Sections 6–7): observed
    sequential runtimes → fitted law → predicted speed-up curve, laid side
    by side with the measured multi-walk speed-ups. *)

type prediction = {
  label : string;
  fit : Fit.report;
  law : Lv_stats.Distribution.t;    (** the law used for prediction *)
  curve : Speedup.point list;
  limit : float;                    (** speed-up ceiling; [infinity] if linear *)
}

val of_dataset :
  ?ctx:Lv_context.Context.t ->
  ?candidates:Fit.candidate list ->
  cores:int list ->
  Lv_multiwalk.Dataset.t ->
  prediction
(** Fit the dataset (keeping {!Fit.chosen}: the best accepted candidate,
    or the highest p-value fit when nothing clears [ctx.alpha]) and
    predict speed-ups at [cores].  Raises [Invalid_argument] when the
    chosen law has no speed-up curve ({!Speedup.has_curve}); the message
    names the law, says whether the KS test accepted it, and points at the
    scenario key [candidates].  The candidate fits and the per-core-count quadratures run serially on the calling domain
    ([ctx.pool] is not used).  With a live [ctx.telemetry] sink the fit
    emits its spans (see {!Fit.fit}) and the prediction wraps in a
    ["predict"] span containing one timed ["predict/predict.speedup"]
    event per core count, in input order (the quadrature cost of each
    {!Speedup.at} evaluation), emitted under that fixed path whatever
    domain runs it. *)

val of_report :
  ?ctx:Lv_context.Context.t ->
  label:string ->
  cores:int list ->
  Fit.report ->
  prediction
(** Predict from an already-computed fit report (the law is
    {!Fit.chosen}) — the entry point for pipelines that fit once and
    predict many times, or restore the fit from an artifact cache.  Raises
    [Invalid_argument] on a report with no fits, or as {!of_dataset} when
    the chosen law has no speed-up curve. *)

val of_distribution :
  label:string -> cores:int list -> Lv_stats.Distribution.t -> prediction
(** Skip fitting: predict from a known law (used when replaying the paper's
    published parameters); the carried report is {!Fit.empty_report}.
    Records no telemetry. *)

type comparison_row = {
  cores : int;
  predicted : float;
  measured : float;
  relative_error : float;  (** (predicted - measured) / measured *)
}

val compare :
  prediction -> measured:(int * float) list -> comparison_row list
(** Join the prediction with measured speed-ups per core count — a Table 5
    block.  Core counts present on only one side are dropped. *)

val save_csv : prediction -> string -> unit
(** Write the predicted curve as CSV (header [cores,speedup], one row per
    core count, round-trip float precision).  Deterministic: equal curves
    serialize to identical bytes — the writer shared by the experiment
    engine's outputs and [lvp predict --output]. *)

val max_abs_relative_error : comparison_row list -> float
(** Largest [|relative_error|] over the rows; [nan] on the empty list (an
    empty join means {e no} core counts matched — returning 0 there would
    read as a perfect prediction). *)

val pp_prediction : Format.formatter -> prediction -> unit
val pp_comparison : Format.formatter -> comparison_row list -> unit
