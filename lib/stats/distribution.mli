(** First-class probability distributions.

    A distribution is a record of closures so that the prediction model can
    operate uniformly on any runtime law: the paper's multi-walk transform
    only needs [pdf], [cdf] and the support, and the speed-up only needs the
    mean.  Parametric families ({!Exponential}, {!Lognormal}, …) build these
    records with closed forms wherever they exist; {!make} fills in the
    generic fallbacks (quantile by root finding, sampling by inversion, mean
    by quadrature). *)

type t = {
  name : string;  (** family name, e.g. ["shifted-exponential"] *)
  params : (string * float) list;  (** named parameters, for reports *)
  support : float * float;  (** (lo, hi); [hi] may be [infinity] *)
  pdf : float -> float;
  cdf : float -> float;
  quantile : float -> float;  (** inverse CDF on (0, 1) *)
  sample : Rng.t -> float;
  mean : float;  (** [nan] when undefined *)
  variance : float;  (** [nan] when undefined or infinite *)
}

val make :
  name:string ->
  ?params:(string * float) list ->
  support:float * float ->
  pdf:(float -> float) ->
  cdf:(float -> float) ->
  ?quantile:(float -> float) ->
  ?sample:(Rng.t -> float) ->
  ?mean:float ->
  ?variance:float ->
  unit ->
  t
(** Build a distribution.  Omitted [quantile] is solved numerically from
    [cdf] with Brent's method; omitted [sample] is inversion of [quantile];
    omitted [mean]/[variance] are integrated numerically from the pdf. *)

val shift : t -> float -> t
(** [shift d x0] translates the support by [x0] — the paper's "shifted"
    distributions ([f(t - x0)] for [t > x0]).  Mean shifts by [x0], variance
    is unchanged. *)

val numeric_mean : t -> float
(** Mean by quadrature of [t·pdf t] over the support (used to cross-check
    closed forms in tests). *)

val sample_array : t -> Rng.t -> int -> float array
(** [sample_array d rng n] draws [n] i.i.d. samples. *)

val pp : Format.formatter -> t -> unit
(** ["lognormal(mu=5, sigma=1)"]-style rendering. *)

val to_string : t -> string
