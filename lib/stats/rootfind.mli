(** Scalar root finding, used for distribution quantiles that have no closed
    form (the generic quantile solves [cdf x = p]). *)

val brent :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float -> float
(** Brent's method: inverse quadratic interpolation with bisection fallback.
    [f lo] and [f hi] must have opposite signs, else [Invalid_argument]. *)
