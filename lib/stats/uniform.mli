(** Continuous uniform family, mostly exercised by tests (its order
    statistics have simple closed forms: [E[min of n] = lo + range/(n+1)]). *)

val create : lo:float -> hi:float -> Distribution.t
