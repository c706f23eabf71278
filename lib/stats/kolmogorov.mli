(** One-sample Kolmogorov–Smirnov goodness-of-fit test — the paper's
    acceptance criterion for every fitted runtime distribution
    (Section 6: accept when the p-value clears 0.05). *)

val statistic : float array -> (float -> float) -> float
(** [statistic sample cdf] is [D_n = sup_x |F_n(x) - F(x)|], evaluated at the
    jump points of the ECDF (where the supremum is attained).  Raises
    [Invalid_argument] on an empty sample, a sample containing NaN, or a
    [cdf] that returns NaN at a jump point — a silent NaN would otherwise
    leave the supremum at 0 and make any fit look perfect. *)

val sorted_copy : float array -> float array
(** The sample in ascending order, as {!statistic} sees it: a fresh copy,
    with the same [Invalid_argument] on an empty sample or one containing
    NaN.  Score several laws against one sample with
    {!statistic_sorted} on this copy to sort only once. *)

val statistic_sorted : float array -> (float -> float) -> float
(** {!statistic} of a sample already returned by {!sorted_copy}: the same
    bits, without the copy, the NaN check and the sort. *)

val kolmogorov_cdf : float -> float
(** CDF of the Kolmogorov distribution,
    [K(x) = 1 - 2 Σ_{k≥1} (-1)^(k-1) e^(-2 k² x²)] for [x > 0], with the
    theta-function form used for small [x] where the alternating series
    converges slowly. *)

val p_value : n:int -> float -> float
(** Asymptotic p-value of the statistic [d] on [n] observations:
    [1 - K(d · (√n + 0.12 + 0.11/√n))] — the Stephens small-sample
    correction, accurate for [n >= 8] (the classical tables' regime). *)

type result = {
  statistic : float;
  p_value : float;
  n : int;
  accept : bool;  (** [p_value >= alpha] *)
  alpha : float;
}

val test : ?alpha:float -> float array -> (float -> float) -> result
(** Run the test of [sample] against the theoretical [cdf] at significance
    level [alpha] (default 0.05, as in the paper).  Raises
    [Invalid_argument] unless [0 < alpha < 1]: every alpha, whatever path
    it came by, is checked here, where it is used. *)

val pp_result : Format.formatter -> result -> unit
