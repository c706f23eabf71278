(** Time-to-target plots (Aiex, Resende & Ribeiro — the paper's refs [2, 3]),
    the standard diagnostic behind the exponential-runtime hypothesis the
    prediction model builds on: plot the sorted runtimes against empirical
    cumulative probabilities and compare with a fitted law's quantiles.  A
    straight Q–Q line means the law explains the data. *)

type point = { runtime : float; probability : float }

val points : float array -> point list
(** Sorted runtimes with plotting positions [p_i = (i - 0.5) / n].  Like
    every entry point of this module, raises [Invalid_argument] on an
    empty sample or one containing a non-finite value (NaN would sort at
    an unspecified rank and scramble the probability axis). *)

val qq_correlation : float array -> Lv_stats.Distribution.t -> float
(** Pearson correlation of the Q–Q pairs (theoretical quantile at [p_i],
    observed [t_(i)]) — a scalar straightness score in [−1, 1]; values
    near 1 support the fitted law. *)

val render : float array -> string
(** ASCII TTT plot: one line per observation decile, cumulative probability
    as bar length (50 characters at probability 1). *)

val report : float array -> Fit.fitted list -> string
(** [report xs fits] is {!render}[ xs], then one line per fit, in order: the
    law, its {!qq_correlation} against [xs] and whether the KS test
    rejected it.  [lvp ttt] passes the {!Fit.paper_candidates} fits of
    [xs]. *)
