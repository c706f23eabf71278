(** The unified experiment engine: one {!Scenario.t} in, the whole paper
    pipeline out.

    [run ctx scenario] executes the scenario's stages in pipeline order —
    campaign (sequential runtime collection), fit (candidate laws +
    KS test), predict (multi-walk speed-up curve), simulate (plug-in
    minimum speed-ups), compare (predicted vs. measured) and validate
    (bootstrap bands, held-out cross-validation and the calibration
    oracle of {!Lv_validate.Validate}).  The scenario is the experiment's
    spec: seed, alpha, candidates, budgets, solver parameters and the
    validation config all come from it.  The {!Lv_context.Context}
    supplies only the machinery the stages share: the pool, the
    telemetry sink, the artifact cache, and the alpha used when the
    scenario gives none.

    {2 Caching}

    With [ctx.cache_dir] set, the expensive stages are served from an
    {!Artifact} store: the campaign artifact is the {!Lv_multiwalk.Checkpoint}
    run-log itself (so a crashed engine run resumes where it stopped, and a
    completed one is a pure cache hit), the fit artifact is a JSON rendering
    of the report (laws are rebuilt with {!Lv_core.Fit.instantiate}), and
    the validation artifact is the {!Lv_validate.Validate.to_json} report
    (keyed on the fit key plus the validation config, cores and seed).  Cache
    keys hash the {e effective} inputs — the scenario's fields, plus the
    context's alpha when the scenario leaves alpha unset — so changing any
    of them recomputes, and lookups surface as ["engine.cache.hit"] /
    ["engine.cache.miss"] telemetry counters and in the outcome.

    {2 Telemetry}

    The whole run wraps in an ["engine"] span; each executed stage emits
    one ["engine/engine.stage"] span (field [stage]), timed whether it was
    computed or restored from cache. *)

type outcome = {
  scenario : Scenario.t;  (** as executed (problem name canonicalized) *)
  campaign : Lv_multiwalk.Campaign.result;
  dataset : Lv_multiwalk.Dataset.t;
      (** the scenario-metric projection everything downstream consumed *)
  fit : Lv_core.Fit.report option;  (** [None] unless stage [Fit] ran *)
  prediction : Lv_core.Predict.prediction option;
      (** [None] unless stage [Predict] ran *)
  simulated : Lv_multiwalk.Sim.row list;  (** [[]] unless stage [Simulate] *)
  comparison : Lv_core.Predict.comparison_row list;
      (** predicted vs. simulated, [[]] unless stage [Compare] *)
  validation : Lv_validate.Validate.report option;
      (** [None] unless stage [Validate] ran *)
  cache_hits : int;  (** artifact-store lookups served from disk *)
  cache_misses : int;  (** artifact-store lookups that recomputed *)
  outputs : (string * string) list;
      (** files written under the scenario's [output] dir, as
          [(kind, path)] — e.g. [("dataset", "results/x-dataset.csv")] *)
}

val run : ?ctx:Lv_context.Context.t -> Scenario.t -> outcome
(** Execute the scenario under the context (default
    {!Lv_context.Context.default}: sequential, null telemetry, no cache).
    Deterministic for a given (scenario, context): datasets and predictions
    are byte-identical whatever the pool size and whether stages were
    computed or served from cache.  Raises [Failure] / [Invalid_argument]
    on an invalid scenario-context combination, and lets stage exceptions
    propagate (nothing half-written: artifact and output writes are
    atomic). *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Human-readable digest: dataset summary, fit verdict, prediction curve,
    comparison table and cache counters — what [lvp run] prints. *)
