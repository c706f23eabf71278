(** Tunable parameters of the Adaptive Search metaheuristic, mirroring the
    knobs of the reference C implementation (tabu tenure, reset trigger and
    width, restart budget, probability of walking through a local minimum). *)

type t = {
  tabu_tenure : int;
  (** Iterations a variable stays frozen after being marked at a local
      minimum. *)
  reset_limit : int;
  (** Number of simultaneously frozen variables that triggers a partial
      reset. *)
  reset_fraction : float;
  (** Fraction of the variables reshuffled by a partial reset, in (0, 1]. *)
  restart_limit : int;
  (** Iterations after which the search restarts from a fresh random
      configuration; [max_int] disables restarts. *)
  max_iterations : int;
  (** Global iteration budget after which the solver gives up;
      [max_int] means run until solved. *)
  prob_select_loc_min : float;
  (** Probability of accepting the best (worsening) swap at a local minimum
      instead of freezing the culprit variable, in [0, 1]. *)
}

val default : t
(** tenure 10, reset at 10% of the variables (resolved per instance by the
    solver when [reset_limit = 0]), reset 25% of variables, no restart, no
    iteration cap, walk probability 0.5. *)

val validate : n_vars:int -> t -> t
(** Resolve instance-dependent defaults ([reset_limit = 0] →
    [max 2 (n/10)]) and sanity-check ranges, raising [Invalid_argument] on
    nonsense (negative tenure, fractions outside (0, 1], ...). *)
