(** Sequential campaigns: many independent runs of one instance, producing
    the runtime datasets everything downstream consumes (paper Section 5.4,
    "about 650 runtimes for each").

    Runs are independent, so campaigns optionally spread across OCaml 5
    domains — this parallelism only accelerates data *collection*; each
    observation is still a sequential run.  Execution goes through the
    {!Lv_exec.Pool} of [?ctx]; without a pool the runs execute serially on
    the calling domain.

    {2 Robustness}

    At ~650 runs per benchmark a campaign must survive faults and account
    for every run honestly:

    - {e Budgets} ([?budget] on {!run}): each run may carry a wall-time
      and/or iteration budget, enforced cooperatively inside the solver.
      A budget-struck run becomes an unsolved, right-{e censored}
      observation — counted in [n_censored], carried in the datasets'
      [censored] arrays, and reported to telemetry — instead of a hung
      worker or a silently dropped data point.
    - {e Checkpoint/resume} ([?checkpoint]): every completed run is
      appended (and flushed) to a JSONL run-log ({!Checkpoint}).  On
      restart with the same [~seed]/[~runs], logged runs are restored
      instead of re-executed — only the runs missing from the log go to
      the executor, and a complete log opens neither the executor nor
      the writer — and the resumed dataset is byte-identical to an
      uninterrupted campaign (per-run seeding [seed + r] makes iteration
      counts exact; restored seconds are the genuinely measured ones).
      A log that is corrupt before its last line, or that was recorded
      under a different seed, raises {!Unusable_checkpoint} before any
      run starts.  The log is decoded straight into per-run columns
      ({!Checkpoint.restore}), the executed runs fill the same columns,
      and the observation list and both datasets are built from them in
      one pass — a warm rerun of a complete log does no other work.  This
      is the one reader and writer of run-logs: the engine's campaign
      artifact is such a log, passed here as [?checkpoint].
    - {e Abort, then resume}: a run whose runner raises aborts the
      campaign.  The exception propagates through the pool's barrier —
      every in-flight run is joined (and checkpointed) first, then the
      exception is re-raised from [run].  A run's walk depends only on its
      seed, so running it again in place would raise again; with
      [?checkpoint], rerunning the campaign resumes after the last logged
      run.

    {2 Context}

    {!run} and {!run_fn} are pipeline entry points: the pool and the
    telemetry sink come from [?ctx] (an {!Lv_context.Context.t}) and
    nowhere else.  Budget and checkpoint path are per-call settings and
    stay explicit arguments. *)

exception Unusable_checkpoint of string
(** Raised by {!run}/{!run_fn} before any run executes when the
    [?checkpoint] log cannot be resumed: a line before the last one is
    malformed, or an entry's seed is not [seed + run].  The message names
    the file. *)

type result = {
  observations : Run.observation list;
  iterations : Dataset.t;  (** iteration metric; censored runs in [censored] *)
  seconds : Dataset.t;     (** wall-time metric; censored runs in [censored] *)
  n_censored : int;        (** runs that hit their budget unsolved *)
  n_retried : int;
      (** always [0]: a campaign never re-runs a run that raised (its walk
          depends only on its seed).  Kept only because
          [perfbench/traced.ml] builds this record as a literal; the field
          goes with that copy of the pipeline. *)
  n_restored : int;        (** runs restored from the checkpoint, not re-run *)
}

val censored_iterations : result -> float array
(** Iteration counts of the censored runs (each ran to its budget): the
    right-censored observations for
    {!Lv_stats.Mle.exponential_censored}-style estimators.  Empty when every
    run solved. *)

val run :
  ?ctx:Lv_context.Context.t ->
  ?params:Lv_search.Params.t ->
  ?budget:Run.budget ->
  ?progress:(int -> unit) ->
  ?checkpoint:string ->
  label:string ->
  seed:int ->
  runs:int ->
  (unit -> Lv_search.Csp.packed) ->
  result
(** [run ~label ~seed ~runs make_instance] performs [runs] independent
    solves.  [make_instance] is called at most once per pool worker (once
    in all without a pool), on that worker's first run, and never when
    every run is restored (instances are mutable and must not be shared).
    [ctx.pool] selects the executor; when it is [None] the runs execute
    one after another on the calling domain.  [progress] is called with
    the number of completed runs after each executed run (restored runs
    count as completed, but are not reported one by one).  Seeding is per-run
    ([seed + run index]) and results are slotted by run index, so the
    datasets are byte-identical whatever the pool size.

    [budget] caps each run (see {!Run.budget}); [checkpoint] and the abort
    path are described above.

    When [ctx.telemetry] (default: the null sink, zero overhead) is a live
    sink, every executed run emits one ["campaign.run"] span (run index,
    seed, worker domain, iterations, solved flag), and the campaign ends
    with ["campaign.censored"] and ["checkpoint.skipped"] counters before
    the wrapping ["campaign"] span (label, runs, domains, seed,
    censored/restored totals). *)

val run_fn :
  ?ctx:Lv_context.Context.t ->
  ?progress:(int -> unit) ->
  ?checkpoint:string ->
  label:string ->
  seed:int ->
  runs:int ->
  (unit -> Lv_stats.Rng.t -> Run.observation) ->
  result
(** Generic campaign over any Las Vegas algorithm: [make_runner ()] is
    called at most once per pool worker (as in {!run}) and must return a function
    performing one independent run from the given generator.  Same seeding,
    determinism, checkpoint and abort guarantees as {!run}; budgets are the
    runner's own business here.  A runner that raises aborts the campaign
    as described above, which is how tests exercise the abort path. *)
