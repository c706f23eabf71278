(** Speed-up prediction for instance sizes never run — the paper's
    future-work proposal (Section 8): "the general shape of the distribution
    is the same when the size of the instances varies […] we can develop a
    method for predicting the speed-up for large instances by learning the
    distribution shape on small instances".

    The method here:

    1. run campaigns on several small sizes of the same problem;
    2. fit the same family to every size and test that the family is stable
       (every size accepts it under KS);
    3. regress each parameter of the family against the size on log-log
       axes (runtimes of local search grow polynomially/exponentially, so
       power laws are the natural model and reduce to ordinary least squares
       in log space);
    4. evaluate the regression at the target size and predict with
       {!Speedup} as usual. *)

type observation = { size : int; dataset : Lv_multiwalk.Dataset.t }

type family_choice = {
  candidate : Fit.candidate;
  fits : (int * Fit.fitted) list;  (** per size, every size accepted *)
}

val stable_family :
  ?candidates:Fit.candidate list -> observation list -> family_choice option
(** The candidate accepted (KS at 0.05) at every size with the highest
    minimum p-value across sizes; [None] when no family is accepted at
    every size.  Requires at least two observations. *)

type power_law = { coefficient : float; exponent : float }
(** [v(size) = coefficient · size^exponent]. *)

val fit_power_law : (float * float) list -> power_law
(** OLS on log-log pairs [(x, v)]; all values must be positive. *)

val eval_power_law : power_law -> float -> float

type prediction = {
  family : Fit.candidate;
  target_size : int;
  laws : (string * power_law) list;  (** one regression per parameter *)
  law : Lv_stats.Distribution.t;     (** the extrapolated runtime law *)
  curve : Speedup.point list;
  limit : float;
}

val predict :
  ?candidates:Fit.candidate list ->
  target_size:int -> cores:int list -> observation list ->
  (prediction, string) result
(** End-to-end: choose a stable family, regress its parameters in size,
    instantiate at [target_size], predict speed-ups at [cores].  [Error]
    explains what failed (no stable family, nonpositive parameters, ...). *)

val pp_prediction : Format.formatter -> prediction -> unit
