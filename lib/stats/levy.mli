(** Lévy family (stable with α = 1/2) — heavy-tailed with infinite mean; the
    paper tried it on the benchmarks and the KS test rejected it.  Kept in
    the candidate pool for the same role. *)

val create : scale:float -> Distribution.t
(** Lévy at location 0 with scale [c > 0].  [mean] and [variance] are [nan]
    (they diverge). *)
