(** Sequential campaigns: many independent runs of one instance, producing
    the runtime datasets everything downstream consumes (paper Section 5.4,
    "about 650 runtimes for each").

    Runs are independent, so campaigns optionally spread across OCaml 5
    domains — this parallelism only accelerates data *collection*; each
    observation is still a sequential run.  Execution goes through the
    {!Lv_exec.Pool} of [?ctx]; a context without a pool makes the campaign
    scope a private one-worker pool for its duration.

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
      instead of re-executed, and the resumed dataset is byte-identical
      to an uninterrupted campaign (per-run seeding [seed + r] makes
      iteration counts exact; restored seconds are the genuinely measured
      ones).  A checkpoint recorded under a different seed is rejected.
    - {e Retry-with-backoff} ([?retry], default {!Retry.none}): a run
      whose runner raises is re-attempted under the policy before the
      campaign aborts.  Retried runs recreate their generator from the
      same seed, so a retry that succeeds yields the exact observation a
      fault-free run would have.  A failure that exhausts the policy
      propagates through the pool's barrier — every in-flight run is
      joined (and checkpointed) first, then the exception is re-raised
      from [run].

    {2 Context}

    {!run} and {!run_fn} are pipeline entry points: the pool and the
    telemetry sink come from [?ctx] (an {!Lv_context.Context.t}) and
    nowhere else.  Budget, checkpoint path and retry policy are per-call
    settings and stay explicit arguments. *)

type result = {
  observations : Run.observation list;
  iterations : Dataset.t;  (** iteration metric; censored runs in [censored] *)
  seconds : Dataset.t;     (** wall-time metric; censored runs in [censored] *)
  n_censored : int;        (** runs that hit their budget unsolved *)
  n_retried : int;         (** runs that needed at least one retry *)
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
  ?retry:Retry.policy ->
  label:string ->
  seed:int ->
  runs:int ->
  (unit -> Lv_search.Csp.packed) ->
  result
(** [run ~label ~seed ~runs make_instance] performs [runs] independent
    solves.  [make_instance] is called at most once per pool worker, on that
    worker's first run (instances are mutable and must not be shared).
    [ctx.pool] selects the executor; when it is [None] a private
    one-worker pool is created for the campaign and shut down after.
    [progress] is called with the number of completed runs after each
    completion (restored runs count as completed).  Seeding is per-run
    ([seed + run index]) and results are slotted by run index, so the
    datasets are byte-identical whatever the pool size.

    [budget] caps each run (see {!Run.budget}); [checkpoint] and [retry]
    are described above.

    When [ctx.telemetry] (default: the null sink, zero overhead) is a live
    sink, every executed run emits one ["campaign.run"] span (run index,
    seed, worker domain, iterations, solved flag), every retry emits one
    ["campaign.retry"] mark (run, attempt, error), and the campaign ends
    with ["campaign.censored"], ["campaign.retry"] and
    ["checkpoint.skipped"] counters before the wrapping ["campaign"] span
    (label, runs, domains, seed, censored/retries/restored totals). *)

val run_fn :
  ?ctx:Lv_context.Context.t ->
  ?progress:(int -> unit) ->
  ?checkpoint:string ->
  ?retry:Retry.policy ->
  label:string ->
  seed:int ->
  runs:int ->
  (unit -> Lv_stats.Rng.t -> Run.observation) ->
  result
(** Generic campaign over any Las Vegas algorithm: [make_runner ()] is
    called at most once per pool worker and must return a function
    performing one independent run from the given generator.  Same seeding,
    determinism, checkpoint and retry guarantees as {!run}; budgets are the
    runner's own business here. *)
