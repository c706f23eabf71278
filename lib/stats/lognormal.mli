(** Lognormal family — the paper's Section 3.4 runtime law, used for the
    MAGIC-SQUARE benchmark.

    Parameters [mu]/[sigma] are the mean and standard deviation of [log X].
    CDF expressed through [erfc] exactly as in the paper:
    [F(t) = erfc((mu - log t) / (√2 σ)) / 2]. *)

val create : mu:float -> sigma:float -> Distribution.t
val shifted : x0:float -> mu:float -> sigma:float -> Distribution.t
