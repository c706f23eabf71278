(** Parameter estimation for the candidate runtime laws.

    The estimators follow the paper's own recipes where it states them
    (Section 6): shifted exponential takes [x0 = min(sample)] and
    [λ = 1/(mean - x0)]; lognormal takes the MLE of log-data; shifted
    variants subtract a shift strictly below the minimum first so that
    [log (x - x0)] is defined on every observation. *)

val exponential : float array -> Distribution.t
(** [λ = 1 / mean]. *)

val exponential_censored :
  observed:float array -> censored:float array -> Distribution.t
(** Type-I right-censoring MLE for the exponential:
    [λ = n_observed / (Σ observed + Σ censored)].  Use when some runs were
    cut off at a budget (their runtimes are known only to exceed the
    censoring values) — dropping them, as the naive estimator must, biases
    [λ] upward and the predicted speed-up with it. *)

val shifted_exponential : float array -> Distribution.t
(** The paper's AI 700 recipe, [x0 = min], [λ = 1/(mean - x0)], with a bias
    correction: the sample minimum of [n] exponential draws overshoots the
    true shift by [1/(nλ)], so [x0 = max 0 (min - (mean - min)/(n-1))].
    This automates the paper's case distinction — data with a genuine shift
    keeps it (AI 700), data whose minimum is pure sampling noise collapses
    to [x0 = 0] and a plain exponential (Costas 21).  Falls back to plain
    exponential when the sample is degenerate. *)

val zero_spread_sigma : float
(** [1e-12]: the [sigma] that {!normal}, {!lognormal} and
    {!shifted_lognormal} substitute when the sample (or its logs, after
    the shift) has no spread, so that the fitted law stays defined.  A fit
    whose [sigma] is this value says "every run took the same time". *)

val normal : float array -> Distribution.t
(** Sample mean and (unbiased) standard deviation. *)

val lognormal : float array -> Distribution.t
(** MLE on logs: [μ = mean (log x)], [σ = std (log x)].  All observations
    must be positive. *)

val shifted_lognormal : float array -> Distribution.t
(** Shift [x0] chosen by a scan maximizing the KS p-value over
    [x0 ∈ [0, min)] (the paper estimated MS 200's [x0 = 6210 = min] with
    Mathematica; searching the shift reproduces that choice on the paper's
    data and generalizes it). *)

val weibull : float array -> Distribution.t
(** MLE by Newton iteration on the shape equation, to a relative step of
    1e-10 within 100 iterations. *)

val gamma : float array -> Distribution.t
(** MLE by Newton on [log k - ψ(k) = log(mean) - mean(log)], started from the
    Minka/method-of-moments seed.  Raises [Invalid_argument] on a sample
    with no spread (all observations equal), where the right-hand side is
    0 and no finite shape solves the equation. *)

val levy : float array -> Distribution.t
(** Matches the median: [c = 2·(erfc⁻¹(1/2))²·median]. *)
