(** Gamma family — one of the distributions for which order-statistic moment
    formulas exist (cited in the paper's conclusion as future candidates). *)

val create : shape:float -> rate:float -> Distribution.t
