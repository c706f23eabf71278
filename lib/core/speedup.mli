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

val curve : Lv_stats.Distribution.t -> cores:int list -> point list
(** One {!at} evaluation per core count, in input order. *)

val has_curve : Lv_stats.Distribution.t -> bool
(** Whether the law has a speed-up curve: the multi-walk transform needs a
    nonnegative support and a finite mean.  Laws outside that class
    (gaussian, Lévy) can still be fitted and validated, but not
    predicted. *)

val limit : Lv_stats.Distribution.t -> float
(** [lim_{n→∞} G_n]: [E[Y] / inf support] when the support's lower end
    [x0 > 0] (finite ceiling), [infinity] when [x0 = 0] — the paper's
    dichotomy between saturating and linearly-scaling problems.  Raises
    [Invalid_argument] unless {!has_curve}. *)

val tangent_at_origin : Lv_stats.Distribution.t -> float
(** Closed form [x0·λ + 1] for exponential laws; first-difference
    [G_2 - G_1] otherwise — the initial steepness the paper reads off the
    lognormal fit. *)

val exponential_curve : x0:float -> rate:float -> cores:int list -> point list
(** The Section 3.3 closed form, without constructing a distribution (used
    by benches to regenerate Figure 3 exactly). *)

val pp_point : Format.formatter -> point -> unit
