(** Statistical multi-walk: the cluster experiment replayed from sequential
    runtime data.

    The independent multi-walk scheme has zero communication, so its runtime
    on [n] cores is *exactly* the minimum of [n] i.i.d. sequential runtimes.
    Given a pool of observed runtimes, the expected parallel runtime is the
    expectation of the minimum of [n] draws, computed in closed form from
    the sorted pool ({!Lv_stats.Empirical.expected_min_table}) with no
    Monte-Carlo noise; {!Lv_stats.Empirical.min_of_draws} draws one
    simulated race.  This module is what stands in for the paper's 256-core
    Grid'5000 runs (Tables 3–4, Figures 6–7 and 14). *)

type row = {
  cores : int;
  expected_runtime : float;  (** E[min of [cores] draws] *)
  speedup : float;           (** mean(pool) / expected_runtime *)
}

val table : Dataset.t -> cores:int list -> row list
(** One row per core count — the reproduction of a Table 3/4 block.  The
    expectations come from one {!Lv_stats.Empirical.expected_min_table}
    call, so each row equals {!Lv_stats.Empirical.expected_min_exact} bit
    for bit. *)

val pp_row : Format.formatter -> row -> unit
