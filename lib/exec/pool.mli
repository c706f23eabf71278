(** Task-queue executor over OCaml 5 domains.

    A pool is a fixed set of worker domains that the caller creates, hands
    to the work, and shuts down: {!create}/{!shutdown}, or {!with_pool} to
    scope both.  There is no process-wide pool; code that is given none
    either runs serially or scopes a pool of its own.  The workers share
    one first-in, first-out queue of tasks: every parallel phase is a flat
    batch of independent tasks, so there is nothing to balance beyond
    taking the next task when one is done.

    {2 Which phases use a pool}

    Only the coarse, independent units of work: the runs of a campaign,
    the walkers of a race, bootstrap replicates, held-out folds and
    calibration-oracle trials.  Candidate fits and per-core-count
    quadratures take milliseconds each and run serially on the calling
    domain: pooling them measured slower than serial on 2 cores.

    {2 Sizing}

    The default size is [Domain.recommended_domain_count ()] — the bound
    the pool is designed around: one worker per core the runtime
    recommends.  An explicit [domains] may exceed it (stress tests
    deliberately oversubscribe, e.g. the CI job running the race
    regressions with [--pool-domains 8] on a 4-core runner); it is
    hard-capped at 126 so a misconfigured flag cannot hit the runtime's
    domain limit.

    {2 Determinism}

    [parallel_map] writes result [i] into slot [i] regardless of which
    worker executed it and in which order, so outputs are byte-identical
    for any pool size — the property the campaign and validation layers
    rely on (same seed ⇒ same dataset ⇒ same figures, pool of 1 or 16).

    {2 Exceptions}

    A raising task does not kill its worker or leak domains: the first
    exception (with its backtrace) is captured, remaining unstarted tasks
    of that call are skipped, every in-flight task is waited for — the
    barrier always joins — and the exception is re-raised in the caller.

    {2 Thread model}

    Callers never execute tasks themselves; work runs only on the pool's
    domains.  The exception is a nested call: a task that itself calls
    [parallel_map] on its own pool runs that batch inline, one element
    after another on its own worker, so nesting cannot deadlock, even on a
    pool of one.  Inline elements follow the same cancellation and
    exception rules but are not counted in [stats.tasks].  A pool may be
    shared by several calling domains; each call's barrier is
    independent.

    [shutdown] must not race in-flight calls: finish (or cancel) your
    jobs, then shut down — {!with_pool} scopes this for you. *)

type t

val create : ?telemetry:Lv_telemetry.Sink.t -> ?domains:int -> unit -> t
(** Spawn the worker domains eagerly.  [domains] defaults to
    [Domain.recommended_domain_count ()]; explicit values are clamped to
    [1..126].  [telemetry] (default: the null sink) receives the pool
    counters when the pool shuts down — see {!shutdown} for the event
    paths. *)

val with_pool :
  ?telemetry:Lv_telemetry.Sink.t -> ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] = create, run [f], always {!shutdown} (also on raise). *)

val size : t -> int
(** Number of worker domains. *)

val worker_index : unit -> int option
(** [Some w] when the calling code runs inside worker [w] of some pool
    ([0 <= w < size]); [None] on any other domain.  Lets tasks keep
    cheap worker-local state (e.g. one solver instance per worker). *)

val parallel_map :
  ?cancel:Cancel.t -> ?skipped:'b -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] evaluates [f] on every element, in parallel,
    preserving input order in the result.

    [cancel] makes the call cancellable.  Once the token is set, tasks
    that have not started are not run: their slots receive [skipped]
    when it is provided.  Without [skipped] the cancellation is purely
    cooperative — [f] still runs for every element and is expected to
    consult the token itself and return quickly.  Tasks already running
    are never interrupted (cooperative model); the barrier waits for
    them. *)

type stats = {
  domains : int;
  tasks : int;  (** tasks executed in total (nested inline calls excluded) *)
  steals : int;
      (** always 0: the workers share one queue, so no task is stolen.
          Kept for readers of the record. *)
  queue_high_water : int;  (** deepest the shared queue ever got *)
  busy_seconds : float array;  (** per-worker time spent inside tasks *)
  worker_tasks : int array;  (** per-worker executed-task counts *)
}

val stats : t -> stats
(** Counters so far.  Exact once the pool is quiescent (all barriers
    passed); a snapshot while tasks run may lag the in-flight ones. *)

val shutdown : t -> unit
(** Stop the workers (they drain the queue first), join every domain,
    then flush the counters to the pool's telemetry sink under fixed
    paths: ["pool.tasks"] and ["pool.queue_hwm"] as counts
    and one ["pool.worker"] span per worker whose duration is that
    worker's busy seconds (fields: [worker], [tasks]).  Idempotent. *)
