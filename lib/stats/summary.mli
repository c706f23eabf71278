(** Descriptive statistics of float samples (the Min / Mean / Median / Max
    columns of the paper's Tables 1–2, plus the moments used by the
    estimators). *)

type t = {
  count : int;
  min : float;
  max : float;
  mean : float;
  median : float;
  variance : float;  (** unbiased, n-1 denominator *)
  std : float;
  skewness : float;  (** sample skewness, 0 when undefined *)
  kurtosis : float;  (** excess kurtosis, 0 when undefined *)
}

val of_array : float array -> t
(** Summary of a nonempty sample.  Raises [Invalid_argument] on [[||]]. *)

val mean : float array -> float
val variance : float array -> float
val std : float array -> float

val quantile : float array -> float -> float
(** [quantile xs p] for [p] in [0, 1]: linear interpolation between order
    statistics (type-7, the R default).  Does not mutate [xs].  Raises
    [Invalid_argument] on an empty [xs] or a [p] outside [0, 1]. *)

val sorted_quantile : float array -> float -> float
(** {!quantile} of an array already sorted in [Float.compare]'s order
    ({!Float_sort.sort}), read without copying or sorting it; the same
    bits, and the same errors, as {!quantile} on any permutation of it. *)

val median : float array -> float

val pp : Format.formatter -> t -> unit
