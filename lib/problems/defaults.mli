(** Tuned Adaptive Search parameters per benchmark problem, playing the role
    of the per-benchmark settings shipped with the reference implementation.
    Derived empirically (see DESIGN.md): magic-square and all-interval want a
    high probability of walking through local minima (0.8); costas and
    n-queens do well at the generic 0.5. *)

val params :
  ?walk:float -> ?max_iterations:int -> string -> int -> Lv_search.Params.t
(** [params ?walk ?max_iterations problem_name size]: tuned parameters for
    the given canonical problem name ({!Registry.names});
    {!Lv_search.Params.default} for unknown names.  [walk] overrides the
    probability of walking through a local minimum and [max_iterations]
    the solver's iteration budget.  Every front end ([lvp] and
    [Lv_engine.Scenario.params]) resolves solver parameters here. *)
