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
    space so it is stable for any [n].  The one-element case of
    {!expected_min_table}.  Raises [Invalid_argument] unless [n > 0]. *)

val expected_min_table : t -> int list -> float list
(** [expected_min_table t ns] is [List.map (expected_min_exact t) ns],
    bit for bit, at the cost of one [log] per order statistic for the whole
    list instead of one per order statistic and [n]: the powers
    [((N-i)/N)^n] are [exp (n · log ((N-i)/N))], and the logs do not
    depend on [n].  Raises [Invalid_argument] unless every [n > 0].  The
    table is built per call, not cached in [t]: [t] is shared across
    domains. *)
