(** The pipeline's shared machinery, carried once.

    A {!t} holds what every stage of one invocation shares: the executor,
    the telemetry sink, the default significance level and the artifact
    cache.  Build one with {!make} (or {!default} and the [with_*]
    combinators) and pass it as [?ctx] to a pipeline entry point:
    [Lv_multiwalk.Campaign.run]/[run_fn], [Lv_core.Fit.fit],
    [Lv_core.Predict.of_report]/[of_dataset]/[of_distribution],
    [Lv_multiwalk.Race.wall_clock]/[iteration_metric],
    [Lv_validate.Validate.run] and [Lv_engine.Engine.run].

    Each setting has exactly one way in.  Entry points take the pool and
    the sink from [?ctx] only.  Single-computation primitives
    ([Lv_core.Fit.fit_one], [Lv_core.Speedup.curve],
    [Lv_validate.Validate.bootstrap_bands]/[holdout]/[oracle]) take no
    context: they receive [?pool]/[?telemetry]/[?alpha] explicitly.
    Per-call settings — budgets, checkpoints, retries, solver parameters,
    candidate pools and a per-scenario alpha — stay explicit arguments of
    the stage that uses them. *)

type t = {
  pool : Lv_exec.Pool.t option;
      (** executor shared by every parallel phase; [None] = the callee's
          default (the process-wide shared pool, or a campaign-scoped
          one-worker pool) *)
  telemetry : Lv_telemetry.Sink.t;  (** default: the null sink *)
  alpha : float;
      (** KS significance level used when a call gives none (0.05) *)
  cache_dir : string option;
      (** directory for the content-addressed artifact store
          ({!Lv_engine.Artifact}); [None] = no caching *)
}

val default : t
(** No pool override, null telemetry, alpha 0.05, no cache. *)

val make :
  ?pool:Lv_exec.Pool.t ->
  ?telemetry:Lv_telemetry.Sink.t ->
  ?cache_dir:string ->
  unit ->
  t
(** {!default} with the given fields set. *)

(** {2 Builder} — each returns an updated copy. *)

val with_pool : Lv_exec.Pool.t -> t -> t
val with_telemetry : Lv_telemetry.Sink.t -> t -> t
val with_cache_dir : string -> t -> t
