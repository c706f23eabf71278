(** Order statistics of i.i.d. samples.

    The multi-walk runtime on [n] cores is the *first* order statistic (the
    minimum) of [n] draws of the sequential runtime, so predicting speed-ups
    reduces to computing [E[X_(1:n)]] — and, following Nadarajah's
    moment formulas the paper relies on for the lognormal case, any moment of
    any order statistic reduces to one numerical integration over the CDF:

    [F_(k:n)(t) = I_{F(t)}(k, n - k + 1)]   (regularized incomplete beta)

    so [E[X_(k:n)]] needs only the base CDF, never the pdf. *)

val survival_power : (float -> float) -> int -> float -> float
(** [survival_power cdf n t] = [(1 - F(t))^n], computed as
    [exp (n · log1p (-F))] so it stays accurate for [n] in the thousands. *)

val expected_min : Distribution.t -> int -> float
(** [expected_min d n] = [E[min of n draws]], by quadrature of the survival
    function; reduces to [d.mean] (numerically) at [n = 1]. *)

val lognormal_kernel_covers : sigma:float -> int -> bool
(** Whether {!lognormal_expected_min} serves [(sigma, n)]: the domain it
    is tested on, [0.1 <= sigma <= 3] and [1 <= n <= 2^20]. *)

val lognormal_expected_min : mu:float -> sigma:float -> ?x0:float -> int -> float
(** [E[min of n draws]] of [x0 + LN(mu, sigma)] on a fixed grid:
    [x0 + σ·e^μ·∫ e^(σz) Φc(z)^n dz], with [log Φc] tabulated at module
    initialisation on 320 Gauss–Legendre nodes over [\[-8.5, 9\]] and the
    part below [-8.5] in closed form.  Within 1e-9 relative of a fine
    composite reference over its domain.  Raises [Invalid_argument]
    outside {!lognormal_kernel_covers}. *)

val moment_min : Distribution.t -> n:int -> k:int -> float
(** [k]-th raw moment of the minimum (support must be nonnegative):
    [E[Z^k] = ∫ k t^(k-1) (1-F)^n dt]. *)

val variance_min : Distribution.t -> int -> float

val cdf_kth : Distribution.t -> n:int -> k:int -> float -> float
(** CDF of the [k]-th order statistic of [n] draws. *)

val expected_kth : Distribution.t -> n:int -> k:int -> float
(** Expectation of the [k]-th order statistic, via the incomplete-beta CDF
    and survival-function quadrature. *)

val exponential_expected_min : rate:float -> ?x0:float -> int -> float
(** Closed form for the (shifted) exponential: [x0 + 1/(nλ)] — the paper's
    Section 3.3 result, used as oracle for the generic path. *)

val uniform_expected_kth : lo:float -> hi:float -> n:int -> k:int -> float
(** Closed form [lo + (hi - lo)·k/(n+1)], test oracle. *)

val weibull_expected_min : shape:float -> scale:float -> int -> float
(** Closed form: the minimum is Weibull with scale [scale / n^(1/shape)]. *)
