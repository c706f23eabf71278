(** Statistical validation of the fit → predict pipeline.

    The paper reports bare point predictions [G_n = E[Y]/E[Z^(n)]] from a
    single KS-selected fit; Hoos & Stützle ({e Evaluating Las Vegas
    Algorithms — Pitfalls and Remedies}) show such conclusions are fragile
    without uncertainty quantification.  This module closes the gap with
    three pillars:

    - {e Bootstrap confidence bands} ({!bootstrap_bands}): percentile-
      bootstrap the {e whole} pipeline — resample the dataset, refit,
      repredict — attaching a {!Lv_stats.Bootstrap.interval} to every
      fitted parameter and every point of the speed-up curve.  Replicates
      run in parallel on the given {!Lv_exec.Pool} with a deterministic
      RNG stream per replicate derived from the seed, so the bands are
      byte-identical for any pool size.
    - {e Held-out cross-validation} ({!holdout}): seeded k-fold split;
      fit on the train split (one pool task per fold), report the KS
      statistic/p-value of the
      fitted law against the held-out split and the predicted-vs-
      empirical speed-up error on held-out plug-in races.
    - {e Simulation-based calibration oracle} ({!oracle}): sample
      synthetic datasets from a {e known} law, run the pipeline on each,
      and check parameter recovery, CI coverage (≈ the nominal level) and
      the held-out KS false-rejection rate (≈ alpha) — turning the whole
      stack into a self-verifying system.

    {!run} combines the three into one {!report} (the engine's [validate]
    stage), serializable to JSON ({!to_json}/{!of_json}, the artifact
    format) and CSV ({!save_csv}).

    The three pillars are single-computation primitives: they take
    [?pool] (absent: run serially) and [?alpha] (absent: 0.05) as explicit
    arguments and record no telemetry.  {!run} is the pipeline entry
    point: it takes the pool and the sink from [?ctx] and owns the spans,
    one per pillar. *)

(** {2 Configuration} *)

type config = {
  replicates : int;  (** bootstrap resamples per band (default 200) *)
  folds : int;  (** cross-validation folds (default 2 = split-half) *)
  level : float;  (** band confidence level (default 0.95) *)
  trials : int;  (** calibration-oracle trials; 0 disables (default 0) *)
}

val default_config : config

val check_config : config -> unit
(** Raises [Invalid_argument] unless [replicates >= 2], [folds >= 2],
    [level] in (0, 1) and [trials >= 0]. *)

(** {2 Bootstrap confidence bands} *)

type param_band = { param : string; interval : Lv_stats.Bootstrap.interval }
type curve_band = { cores : int; interval : Lv_stats.Bootstrap.interval }

type bootstrap_report = {
  family : string;
      (** candidate family the bands condition on (the base fit's choice:
          resamples refit {e this} family — bands quantify parameter and
          curve noise given the selected family, not model choice) *)
  replicates : int;
  band_level : float;
  dropped : int;
      (** replicates whose refit was inapplicable on the resample *)
  params : param_band list;
  curve : curve_band list;
}

val bootstrap_bands :
  ?pool:Lv_exec.Pool.t ->
  ?replicates:int ->
  ?level:float ->
  seed:int ->
  cores:int list ->
  report:Lv_core.Fit.report ->
  float array ->
  bootstrap_report
(** [bootstrap_bands ~seed ~cores ~report xs] resamples [xs] with
    replacement [replicates] times, refits the family [report] selected
    ({!Lv_core.Fit.chosen}) on each resample, repredicts the speed-up at
    every core count, and reduces to percentile intervals around the base
    fit's estimates.
    Replicate [i] draws from its own generator seeded by a splitmix of
    [(seed, i)], so results do not depend on pool size or scheduling.
    Raises [Invalid_argument] on a report with no fits, a sample smaller
    than 2, or when every replicate's refit is inapplicable. *)

(** {2 Held-out cross-validation} *)

type fold_report = {
  fold : int;
  train_size : int;
  test_size : int;
  family : string;  (** family the train-split fit selected *)
  ks : Lv_stats.Kolmogorov.result;
      (** train-fitted law against the held-out split *)
  speedup_err : float;
      (** max over [cores] of |predicted/empirical - 1| where the
          empirical speed-up is the held-out split's exact plug-in
          minimum ({!Lv_stats.Empirical.expected_min_exact}) *)
}

type holdout_report = {
  folds : fold_report list;
  rejections : int;  (** folds whose held-out KS test rejected *)
  mean_statistic : float;  (** mean held-out KS statistic *)
  max_speedup_err : float;  (** worst [speedup_err] over folds *)
}

val holdout :
  ?pool:Lv_exec.Pool.t ->
  ?alpha:float ->
  ?candidates:Lv_core.Fit.candidate list ->
  ?folds:int ->
  seed:int ->
  cores:int list ->
  float array ->
  holdout_report
(** [holdout ~seed ~cores xs] permutes [xs] with a generator derived from
    [seed] (deterministic: same seed, same split), partitions it into
    [folds] folds, and for each fold fits the candidate pool on the other
    folds and scores the fit on the held-out one.  With [pool] the folds
    run as one pool task each (each fold's fit is serial inside its
    task); the report is the same for any pool size.  Raises
    [Invalid_argument] when [folds < 2] or [xs] has fewer than
    [2 * folds] observations. *)

(** {2 Simulation-based calibration oracle} *)

type oracle_report = {
  family : string;
  truth : (string * float) list;  (** parameters of the generating law *)
  trials : int;
  runs : int;  (** synthetic dataset size per trial *)
  oracle_level : float;
  alpha : float;
  failures : int;
      (** trials where the pipeline could not complete (estimator
          inapplicable on the synthetic data) — 0 on a healthy stack *)
  param_coverage : (string * float) list;
      (** per parameter: fraction of trials whose band covered the truth
          (should be ≈ [oracle_level]) *)
  curve_coverage : float;
      (** fraction of (trial, core) band points covering the true
          speed-up; [nan] when the law has no speed-up curve
          ({!Lv_core.Speedup.has_curve}) *)
  mean_abs_rel_error : (string * float) list;
      (** per parameter: mean [|fitted - truth| / |truth|] over trials
          (absolute error when the truth is exactly zero) — the
          parameter-recovery error *)
  ks_rejections : int;
      (** trials whose held-out KS test (80/20 train/test split — a
          50/50 split would inflate the rate with parameter-estimation
          drift) rejected the train-fitted law; the false-rejection rate
          [ks_rejections / trials] should be ≲ [alpha] *)
}

val oracle :
  ?pool:Lv_exec.Pool.t ->
  ?alpha:float ->
  ?replicates:int ->
  ?level:float ->
  ?trials:int ->
  seed:int ->
  cores:int list ->
  runs:int ->
  candidate:Lv_core.Fit.candidate ->
  truth:Lv_stats.Distribution.t ->
  unit ->
  oracle_report
(** [oracle ~seed ~cores ~runs ~candidate ~truth ()] samples [trials]
    (default 200) synthetic datasets of [runs] i.i.d. draws from [truth],
    runs fit → bootstrap-bands → holdout-KS on each, and aggregates
    coverage, recovery error and the false-rejection count.  Trials run
    in parallel on the pool, each under its own deterministic stream.
    [candidate] names the family being calibrated; [truth] must be a law
    of that family for coverage to be meaningful. *)

(** {2 Combined report} *)

type report = {
  label : string;
  seed : int;
  alpha : float;
  cores : int list;
  config : config;
  sample_size : int;
  bootstrap : bootstrap_report;
  cross_validation : holdout_report;
  calibration : oracle_report option;  (** present when [config.trials > 0] *)
}

val run :
  ?ctx:Lv_context.Context.t ->
  ?alpha:float ->
  ?candidates:Lv_core.Fit.candidate list ->
  config:config ->
  seed:int ->
  cores:int list ->
  label:string ->
  report:Lv_core.Fit.report ->
  float array ->
  report
(** The engine's [validate] stage: {!bootstrap_bands} and {!holdout} on
    the observed data, plus — when [config.trials > 0] — an {!oracle}
    pass that takes the base fit's selected law as ground truth and
    checks the machinery recovers it (self-calibration anchored at the
    scenario's own fit).  Emits one ["validate"] telemetry span wrapping
    ["validate.bootstrap"] (family, replicates, level) /
    ["validate.holdout"] (folds, sample size) / ["validate.oracle"]
    (family, trials, runs; only when [config.trials > 0]) child spans.
    The pool and the sink come from [ctx], as in {!Lv_core.Fit.fit}; [alpha] defaults to [ctx.alpha] and [candidates] to
    every family. *)

(** {2 Serialization} *)

val to_json : report -> Lv_telemetry.Json.t
val of_json : Lv_telemetry.Json.t -> report
(** Inverse of {!to_json}; raises [Failure] on malformed input (the
    artifact-cache load path, where a failure means recompute). *)

val save_json : report -> string -> unit
(** Atomic-enough single write of [to_json] plus a trailing newline. *)

val save_csv : report -> string -> unit
(** Flat machine-readable table, one row per band/fold/oracle metric:
    [kind,name,cores,estimate,lo,hi,level] with round-trip float
    precision; deterministic (equal reports serialize identically). *)

val pp_report : Format.formatter -> report -> unit
