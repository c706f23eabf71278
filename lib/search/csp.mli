(** Problem interface for constraint-based local search on permutations.

    All three of the paper's benchmarks (ALL-INTERVAL, MAGIC-SQUARE, COSTAS
    ARRAY) are modelled — as in the reference Adaptive Search library — as
    permutation problems: a configuration is a permutation of [0 .. n-1]
    (interpreted problem-specifically) and the only move is swapping two
    positions.  A problem implementation maintains incremental state so that
    the solver's inner loop stays cheap.  That loop makes two calls into the
    problem per iteration: one [errors] scan of every variable's projected
    error, to pick the culprit, and one [best_partners] scan of every swap
    partner of the culprit.  Each is problem-owned, so it may share work
    across variables or partners; each must match a reference built from the
    per-item function ({!errors_by} over [var_error], {!best_partners_by}
    over [cost_after_swap]). *)

module type PROBLEM = sig
  type t
  (** Mutable instance state: the configuration plus whatever incremental
      bookkeeping the cost function needs. *)

  val name : string

  val size : t -> int
  (** Number of decision variables (positions of the permutation). *)

  val set_config : t -> int array -> unit
  (** Install a configuration (a permutation of [0 .. size-1]) and rebuild
      all incremental state.  The array is copied. *)

  val config : t -> int array
  (** The current configuration.  Callers must not mutate it. *)

  val cost : t -> int
  (** Global cost of the current configuration; [0] iff it is a solution. *)

  val var_error : t -> int -> int
  (** Projected error of variable [i] ≥ 0: the solver repairs the variable
      with the largest error (Adaptive Search's "culprit" selection).  The
      solver reads all errors at once through [errors]; this is the
      per-variable reference it must match. *)

  val errors : t -> int array -> unit
  (** [errors t buf] writes [var_error t i] to [buf.(i)] for every variable
      [i], in one pass.  [buf] has at least [size t] cells.  Must not change
      observable state and must agree exactly with [errors_by var_error]:
      the solver picks its culprit from these values, so they fix the
      trajectory. *)

  val cost_after_swap : t -> int -> int -> int
  (** Total cost the configuration would have after swapping positions [i]
      and [j].  Must not change observable state. *)

  val best_partners : t -> int -> int array -> int
  (** [best_partners t culprit buf] scores the swap of [culprit] with every
      other position [j] and returns the minimum cost after swap.  It writes
      the number [k] of partners reaching that minimum to [buf.(0)] and those
      partners, in ascending [j], to [buf.(1) .. buf.(k)].  [buf] has at
      least [size t + 1] cells.  Must not change observable state and must
      agree exactly with [best_partners_by cost_after_swap]: the solver draws
      its partner from the tie list, so the list fixes the trajectory. *)

  val do_swap : t -> int -> int -> unit
  (** Swap positions [i] and [j] and update incremental state. *)

  val is_solution : t -> bool
  (** Independent full check of the current configuration — deliberately
      not derived from [cost] so tests can cross-validate the incremental
      bookkeeping. *)
end

(** A problem packaged with an instance, hiding the concrete type — what the
    multi-walk layer and the CLI pass around. *)
type packed = Packed : (module PROBLEM with type t = 'a) * 'a -> packed

val errors_by : ('t -> int -> int) -> int -> 't -> int array -> unit
(** [errors_by var_error n t buf] is the reference error scan over variables
    [0 .. n-1]: [buf.(i) <- var_error t i] for each [i].  Problems with no
    cheaper shared scan implement [errors] as this, fully applied. *)

val best_partners_by :
  ('t -> int -> int -> int) -> int -> 't -> int -> int array -> int
(** [best_partners_by cost_after_swap n t culprit buf] is the reference
    partner scan over positions [0 .. n-1]: one [cost_after_swap t culprit j]
    call per partner [j <> culprit], with the result and [buf] layout of
    [PROBLEM.best_partners].  Problems with no cheaper shared scan implement
    [best_partners] as this, fully applied (a partial application would
    allocate a closure per call). *)

val packed_name : packed -> string
val packed_size : packed -> int
