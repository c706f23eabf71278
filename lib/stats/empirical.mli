(** Empirical distribution of an observed sample — the "about 650 runtimes"
    the paper collects per benchmark before fitting anything. *)

type t

val of_array : float array -> t
(** Sorts a copy of the sample with [Float.compare].  Raises
    [Invalid_argument] on [[||]] or if any observation is NaN (a NaN would
    silently corrupt the sort order and every quantile downstream). *)

val size : t -> int
val sorted : t -> float array
(** The sorted observations (do not mutate). *)

val min : t -> float
val max : t -> float
val mean : t -> float

val cdf : t -> float -> float
(** Right-continuous ECDF: fraction of observations [<= x]. *)

val quantile : t -> float -> float
(** Type-7 interpolated quantile. *)

val resample : t -> Rng.t -> int -> float array
(** Draw with replacement (bootstrap resampling). *)

val min_of_draws : t -> Rng.t -> int -> float
(** [min_of_draws e rng n]: minimum of [n] draws with replacement — one
    simulated multi-walk run on [n] cores. *)

val expected_min_exact : t -> int -> float
(** Exact expectation of the minimum of [n] draws with replacement:
    [Σ x_(i) · ((N-i+1)^n - (N-i)^n) / N^n] over the sorted sample — the
    plug-in estimator of [E[Z^(n)]], no Monte-Carlo noise.  Computed in log
    space so it is stable for any [n]. *)
