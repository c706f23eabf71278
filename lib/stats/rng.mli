(** Deterministic, splittable pseudo-random number generator.

    The core generator is xoshiro256** seeded through splitmix64, which gives
    high-quality 64-bit streams from any integer seed.  Generators are
    explicit values: every sampling function threads a [t], so runs are
    reproducible and independent streams can be handed to parallel domains
    via {!split} without sharing mutable state. *)

type t
(** Mutable generator state.  Not thread-safe: use one [t] per domain,
    obtained with {!split}. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed.  Equal seeds give
    equal streams. *)

val copy : t -> t
(** Independent copy with identical current state. *)

val split : t -> t
(** [split rng] draws fresh state from [rng] and returns a new generator
    statistically independent of the parent's subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit output word. *)

val int : t -> int -> int
(** [int rng bound] is uniform on [\[0, bound)].  [bound] must be positive.
    Uses rejection sampling, so the result is exactly uniform. *)

val float : t -> float -> float
(** [float rng bound] is uniform on [\[0, bound)] with 53-bit resolution. *)

val uniform : t -> float
(** Uniform on [\[0, 1)]. *)

val uniform_pos : t -> float
(** Uniform on [(0, 1)] — never returns [0.], convenient for [log]. *)

val normal : t -> float
(** Standard normal draw (Marsaglia polar method). *)

val exponential : t -> rate:float -> float
(** Exponential draw with rate [rate] (mean [1. /. rate]) by inversion. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Lognormal draw: [exp (mu + sigma * normal)]. *)

val shuffle_prefix : t -> 'a array -> int -> unit
(** [shuffle_prefix rng a k] is a Fisher–Yates shuffle of [a.(0) .. a.(k-1)]
    in place, drawing [int rng i] for [i = k] down to [2]. *)

val permutation : t -> int -> int array
(** [permutation rng n] is a uniform random permutation of [0 .. n-1]. *)
