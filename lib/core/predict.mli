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

val of_report :
  ?ctx:Lv_context.Context.t ->
  label:string ->
  cores:int list ->
  Fit.report ->
  prediction
(** Predict speed-ups at [cores] from a {!Fit.fit} report, fresh or
    restored from an artifact cache.  The law is {!Fit.chosen}: the best
    accepted candidate, or the highest p-value fit when nothing clears the
    KS level.  Raises [Invalid_argument] on a
    report with no fits, or when the chosen law has no speed-up curve
    ({!Speedup.has_curve}); that message names the law, says whether the
    KS test accepted it, and points at the scenario key [candidates].  The
    per-core-count quadratures run serially on the calling domain
    ([ctx.pool] is not used).  With a live [ctx.telemetry] sink the
    prediction wraps in a ["predict"] span containing one timed
    ["predict/predict.speedup"] event per core count, in input order (the
    quadrature cost of each {!Speedup.at} evaluation), emitted under that
    fixed path whatever domain runs it. *)

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
(** The law, the limit ([linear (inf)] when [limit] is infinite) and the
    curve.  When the law's [sigma] is {!Lv_stats.Mle.zero_spread_sigma}
    (every observation equal) the limit prints as [1.00 (no spread)]:
    runs of equal length finish together on any number of cores, and the
    curve reads 1 at every core count.  The record's [limit] keeps the
    law's own value. *)

val pp_comparison : Format.formatter -> comparison_row list -> unit
