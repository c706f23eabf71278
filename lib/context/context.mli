(** The pipeline's shared machinery, carried once.

    A {!t} holds what every stage of one invocation shares: the executor,
    the telemetry sink, the default significance level and the artifact
    cache.  Build one with {!make} and pass it as [?ctx] to a pipeline
    entry point: [Lv_multiwalk.Campaign.run]/[run_fn], [Lv_core.Fit.fit],
    [Lv_core.Predict.of_report], [Lv_multiwalk.Race.wall_clock],
    [Lv_validate.Validate.run] and [Lv_engine.Engine.run].

    Each setting has exactly one way in.  Entry points take the pool and
    the sink from [?ctx] only.  Single-computation primitives
    ([Lv_core.Fit.fit_one],
    [Lv_validate.Validate.bootstrap_bands]/[holdout]/[oracle]) take no
    context and record no telemetry; the [Validate] pillars receive
    [?pool] and [?alpha] explicitly, and [fit_one] tests at 0.05.
    [Lv_core.Predict.of_distribution] and
    [Lv_multiwalk.Race.iteration_metric] are serial and untraced.
    Per-call settings — budgets, checkpoints, solver parameters, candidate
    pools and a per-scenario alpha — stay explicit arguments of the stage
    that uses them. *)

type t = {
  pool : Lv_exec.Pool.t option;
      (** executor for the parallel phases (campaign runs, race
          walkers, validation replicates, folds and trials).  [None]
          means serial on the calling domain, in every phase
          ({!Lv_exec.Pool.map}).  Fits and predictions never use it. *)
  telemetry : Lv_telemetry.Sink.t;  (** default: the null sink *)
  alpha : float;
      (** KS significance level used when a call gives none (0.05) *)
  cache_dir : string option;
      (** directory for the content-addressed artifact store
          ({!Lv_engine.Artifact}); [None] = no caching *)
}

val default : t
(** No pool (serial), null telemetry, alpha 0.05, no cache. *)

val make :
  ?pool:Lv_exec.Pool.t ->
  ?telemetry:Lv_telemetry.Sink.t ->
  ?cache_dir:string ->
  unit ->
  t
(** {!default} with the given fields set. *)
