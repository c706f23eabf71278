(** Exponential family — the paper's Section 3.3 runtime law.

    [f(t) = λ e^(-λ(t - x0))] for [t > x0]; mean [x0 + 1/λ].  The non-shifted
    case ([x0 = 0]) yields a perfectly linear multi-walk speed-up; [x0 > 0]
    caps it at [1 + 1/(x0 λ)]. *)

val create : rate:float -> Distribution.t
(** Exponential with rate [λ > 0] (mean [1/λ]). *)

val shifted : x0:float -> rate:float -> Distribution.t
(** Shifted exponential starting at [x0 >= 0]. *)
