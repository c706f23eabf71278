(** Percentile bootstrap confidence intervals — used to put error bars on the
    measured speed-ups (the paper reports bare averages of 50 runs; the
    reproduction quantifies the resampling noise instead). *)

type interval = { estimate : float; lo : float; hi : float; level : float }

val percentile_interval :
  ?level:float -> estimate:float -> float array -> interval
(** [percentile_interval ~estimate stats] is the percentile interval at
    [level] (default 0.95) of an already-computed array of replicate
    statistics (sorted internally with [Float.compare]; the type-7 quantile
    rule of {!Summary.quantile}) around the point estimate — the reduction
    step of a percentile bootstrap whose replicates are generated elsewhere
    (the whole-pipeline bootstrap of [Lv_validate]).  A NaN replicate
    statistic sorts {e last} under [Float.compare]'s total order, so it
    surfaces in the upper percentile rather than silently corrupting the
    sort.  Raises [Invalid_argument] on an empty [stats] array or a
    [level] outside (0, 1). *)

val covers : interval -> float -> bool
(** [covers i x] is [lo <= x <= hi] — the event a calibration oracle
    counts when measuring empirical coverage. *)

val pp_interval : Format.formatter -> interval -> unit
