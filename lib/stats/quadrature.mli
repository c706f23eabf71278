(** Numerical integration.

    The prediction model needs `E[Z^(n)] = ∫ t·n·f(t)·(1-F(t))^(n-1) dt` and
    the equivalent survival form `∫ (1-F(t))^n dt` over semi-infinite
    intervals, for integrands that are smooth but sharply peaked (the
    lognormal case of the paper).  Two rules are provided:

    - adaptive Simpson, robust default on finite intervals;
    - fixed-order Gauss–Legendre, cheap and accurate for smooth integrands,
      which {!integrate_decaying} sums over growing panels for semi-infinite
      intervals.

    Every function here is safe to call from multiple domains concurrently:
    the only shared state is the node tables of {!gauss_nodes}, built at
    module initialisation and only read after that.  Integrands must be
    re-entrant if shared. *)

val simpson_adaptive :
  ?rel_tol:float -> ?abs_tol:float -> ?max_depth:int ->
  (float -> float) -> lo:float -> hi:float -> float
(** Adaptive Simpson on [\[lo, hi\]].  Defaults: [rel_tol = 1e-10],
    [abs_tol = 1e-12], [max_depth = 48]. *)

val gauss_legendre : ?order:int -> (float -> float) -> lo:float -> hi:float -> float
(** Composite Gauss–Legendre with [order] nodes (default 64) on one panel. *)

val gauss_nodes : int -> float array * float array
(** Nodes and weights of the [order]-point rule on [\[-1, 1\]], as fresh
    arrays.  The two orders production uses, 48 ({!integrate_decaying}'s
    panels) and 320 (the lognormal kernel of
    {!Order_stats.lognormal_expected_min}), are copies of tables built once
    at module initialisation; any other order is built by {!newton_nodes}
    on each call. *)

val newton_nodes : int -> float array * float array
(** The Newton-iteration construction of the Gauss–Legendre nodes (roots
    of the Legendre polynomial) and weights, computed afresh. *)

val integrate_decaying :
  ?rel_tol:float -> ?scale:float -> (float -> float) -> lo:float -> float
(** ∫_lo^∞ f for an eventually-decreasing integrand: sums panels of
    geometrically growing width (each by {!gauss_legendre}) until a panel
    contributes less than [rel_tol] of the running total.  [scale] sets the
    first panel width (default 1.0).  More reliable than a single variable
    change when the integrand's mass sits far from [lo]. *)
