(** Predicted multi-walk speed-up (paper Section 3.2):
    [G_n = E[Y] / E[Z^(n)]].

    For a (shifted) exponential law the curve is the paper's closed form
    [G_n = (x0 + 1/λ) / (x0 + 1/(nλ))], with limit [1 + 1/(x0 λ)] as
    [n → ∞] and tangent slope [x0 λ + 1] at the origin (Section 3.3).  Any
    other law goes through the order-statistics quadrature (Section 3.4's
    lognormal path). *)

type point = { cores : int; speedup : float }

val at : Lv_stats.Distribution.t -> cores:int -> float
(** Predicted [G_n] at one core count.  [G_1 = 1] by construction. *)

val curve :
  ?pool:Lv_exec.Pool.t -> Lv_stats.Distribution.t -> cores:int list -> point list
(** One {!at} evaluation per core count.  With [pool] the quadratures run
    as one pool task each (they are independent integrals); the result is
    identical to the serial evaluation, in input order. *)

val limit : Lv_stats.Distribution.t -> float
(** [lim_{n→∞} G_n]: [E[Y] / inf support] when the support's lower end
    [x0 > 0] (finite ceiling), [infinity] when [x0 = 0] — the paper's
    dichotomy between saturating and linearly-scaling problems. *)

val tangent_at_origin : Lv_stats.Distribution.t -> float
(** Closed form [x0·λ + 1] for exponential laws; first-difference
    [G_2 - G_1] otherwise — the initial steepness the paper reads off the
    lognormal fit. *)

val exponential_curve : x0:float -> rate:float -> cores:int list -> point list
(** The Section 3.3 closed form, without constructing a distribution (used
    by benches to regenerate Figure 3 exactly). *)

val efficiency : Lv_stats.Distribution.t -> cores:int -> float
(** Parallel efficiency [G_n / n] in (0, 1]: 1 for a perfectly linear law,
    sliding toward 0 as the speed-up saturates. *)

val cores_for_efficiency :
  ?max_cores:int -> Lv_stats.Distribution.t -> threshold:float -> int
(** Largest core count whose efficiency still meets [threshold] (in (0, 1]):
    the provisioning question the prediction model answers — "how many
    cores are worth racing on this workload?".  Efficiency is
    nonincreasing in [n], so this is a binary search; returns [max_cores]
    (default 1,048,576) when the law never drops below the threshold (the
    linear case). *)

val pp_point : Format.formatter -> point -> unit
