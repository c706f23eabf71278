(** The multi-walk transform (paper Section 3.1): from the runtime law [Y] of
    one walker to the law of [Z^(n) = min(X_1, ..., X_n)], [X_i ~ Y] i.i.d.:

    [F_Z(x) = 1 - (1 - F_Y(x))^n]
    [f_Z(x) = n f_Y(x) (1 - F_Y(x))^(n-1)]

    Expectations use closed forms or a fixed-grid kernel for the (shifted)
    exponential, Weibull and (shifted) lognormal laws, and the
    order-statistics quadrature otherwise. *)

val cdf : Lv_stats.Distribution.t -> n:int -> float -> float
val pdf : Lv_stats.Distribution.t -> n:int -> float -> float

val distribution : Lv_stats.Distribution.t -> n:int -> Lv_stats.Distribution.t
(** The full law of [Z^(n)] as a first-class distribution (quantile
    [F⁻¹(1 - (1-p)^(1/n))], sampling by racing [n] draws). *)

val expectation : Lv_stats.Distribution.t -> n:int -> float
(** [E[Z^(n)]].  Detects three families by name and parameters: the
    (shifted) exponential uses [x0 + 1/(nλ)], the Weibull its closed form
    {!Lv_stats.Order_stats.weibull_expected_min}, and the (shifted)
    lognormal the fixed-grid kernel
    {!Lv_stats.Order_stats.lognormal_expected_min} wherever
    {!Lv_stats.Order_stats.lognormal_kernel_covers} its [sigma] and [n].
    Anything else goes through {!Lv_stats.Order_stats.expected_min}. *)

val exponential_params : Lv_stats.Distribution.t -> (float * float) option
(** [(x0, λ)] when the distribution is a (shifted) exponential, else
    [None]. *)
