(** Distribution fitting pipeline (paper Section 6): estimate each candidate
    family's parameters on the observed runtimes, Kolmogorov–Smirnov-test
    the fit, and keep what passes.

    The paper's candidate pool: exponential, shifted exponential, lognormal
    (shifted), plus gaussian and Lévy which its tests rejected — all present
    here so the rejection is reproducible. *)

type candidate =
  | Exponential
  | Shifted_exponential
  | Lognormal
  | Shifted_lognormal
  | Normal
  | Weibull
  | Gamma
  | Levy

val all_candidates : candidate list

val paper_candidates : candidate list
(** The pool the paper actually tested (Section 6): exponential, shifted
    exponential, lognormal (plain and shifted), gaussian, Lévy.  Prefer this
    pool when the fit feeds a *speed-up prediction*: the multi-walk transform
    amplifies the lower tail, and the heavier-shaped families of
    {!all_candidates} (gamma, Weibull) can win the KS p-value contest while
    extrapolating that tail badly. *)

val candidate_name : candidate -> string
val candidate_of_string : string -> candidate option

val instantiate : candidate -> (string * float) list -> Lv_stats.Distribution.t
(** Build a distribution of the given family from named parameters (the
    names used in {!Lv_stats.Distribution.t.params}: "lambda", "x0", "mu",
    "sigma", "shape", "scale", "rate", "c").  Raises [Invalid_argument] on a
    missing name or out-of-range value.  Shifts ("x0") default to 0. *)

type fitted = {
  candidate : candidate;
  dist : Lv_stats.Distribution.t;
  ks : Lv_stats.Kolmogorov.result;
}

type report = {
  sample_size : int;       (** solved observations the fit actually saw *)
  n_censored : int;        (** budget-censored runs excluded from the fit *)
  censored_fraction : float;
      (** [n_censored / (sample_size + n_censored)] — above
          {!censoring_warn_threshold} the fitted law is materially
          truncated and {!censoring_warning} fires *)
  fits : fitted list;      (** every candidate that could be estimated,
                               sorted by decreasing p-value *)
  accepted : fitted list;  (** the subset passing the KS test *)
  best : fitted option;
      (** highest p-value among the accepted — except that when a plain
          exponential/lognormal tops the list while its shifted variant is
          also accepted, the shifted one is preferred: the two are nearly
          indistinguishable to the KS statistic, but the shift decides
          whether the predicted speed-up saturates, so the nesting family
          (which degrades gracefully to [x0 = 0]) is the safer choice *)
}

val empty_report : report
(** The report of a fit that never ran (zero observations, no fits):
    what {!Predict.of_distribution} carries when the law is given rather
    than fitted.  Use this instead of building the record literal so new
    [report] fields cannot silently desync across call sites. *)

val fit_one :
  ?alpha:float ->
  ?telemetry:Lv_telemetry.Sink.t ->
  candidate ->
  float array ->
  fitted option
(** Fit and KS-test one candidate at [alpha] (default
    [Lv_context.Context.default.alpha], 0.05).  [None] when the estimator
    does not apply (e.g. lognormal on data with nonpositive values).
    Raises [Invalid_argument] unless [0 < alpha < 1].  With a live
    [telemetry] sink (default: the null sink), emits one
    ["fit.candidate"] span carrying the candidate name, the split between
    estimation and KS-test time ([estimate_s]/[ks_s]), the p-value and the
    accept/reject/inapplicable outcome. *)

val compare_by_p_value : fitted -> fitted -> int
(** Decreasing KS p-value, under [Float.compare]'s total order: a NaN
    p-value (degenerate KS input) always sorts last, never first.  This is
    the order of {!report.fits}. *)

val censoring_warn_threshold : float
(** Censored fraction above which a fit is flagged as truncated (0.05). *)

val censoring_warning : report -> string option
(** A human-readable warning when [censored_fraction] exceeds
    {!censoring_warn_threshold}: the fit ignored the censored runs, so it
    understates the upper tail and the speed-up predictions built on it
    are optimistic.  [None] below the threshold.  {!pp_report} prints it. *)

val fit :
  ?ctx:Lv_context.Context.t ->
  ?alpha:float ->
  ?candidates:candidate list ->
  ?n_censored:int ->
  float array ->
  report
(** Run the whole pool (default {!all_candidates}) at significance [alpha]
    (default [ctx.alpha]; [Invalid_argument] unless [0 < alpha < 1]).
    Candidates are fitted in parallel on [ctx.pool] (default
    {!Lv_exec.Pool.default}); the report is deterministic regardless of
    pool size.  Candidates that estimate the {e same} law (e.g. a shifted
    family whose best shift degenerates to 0) appear once in [fits].
    [n_censored] (default 0) declares how many budget-censored runs the
    sample excludes; it feeds the report's censoring fields and warning
    rather than the estimators themselves.  The whole run is wrapped in a
    ["fit"] telemetry span on [ctx.telemetry] (sample size, censored
    count, candidate count, number accepted); the per-candidate spans are
    emitted under the fixed path ["fit/fit.candidate"] whatever worker
    they ran on. *)

val pp_fitted : Format.formatter -> fitted -> unit
val pp_report : Format.formatter -> report -> unit
