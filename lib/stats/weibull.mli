(** Weibull family.  Not in the paper's final fits, but part of the wider
    candidate pool the conclusion calls for; its minimum is again Weibull
    (scale divided by n^(1/shape)), a useful closed-form test oracle. *)

val create : shape:float -> scale:float -> Distribution.t
