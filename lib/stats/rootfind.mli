(** Scalar root finding, used for distribution quantiles that have no closed
    form (the generic quantile solves [cdf x = p]). *)

val brent : (float -> float) -> lo:float -> hi:float -> float
(** Brent's method: inverse quadratic interpolation with bisection fallback,
    to an absolute tolerance of 1e-13 within 100 iterations.
    [f lo] and [f hi] must have opposite signs, else [Invalid_argument]. *)
