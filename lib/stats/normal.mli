(** Normal family, plus the positive truncation used by the paper's Figure 1
    ("gaussian cut on R⁻ and renormalized"). *)

val create : mu:float -> sigma:float -> Distribution.t

val truncated_positive : mu:float -> sigma:float -> Distribution.t
(** Normal conditioned on [X >= 0]: density rescaled by [1 / (1 - Φ(-μ/σ))]
    on the nonnegative half-line — a proper runtime law for Figure 1. *)
