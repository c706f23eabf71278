(** Retry-with-exponential-backoff for transient runner faults.

    At campaign scale (~650 sequential runs per benchmark) a single
    crashed run — an I/O hiccup, a flaky problem generator — used to
    abort the whole campaign.  A retry policy re-runs the failed run
    instead: because campaigns seed each run deterministically
    ([seed + run index], the generator is recreated per attempt), a
    retried run produces the {e same} observation a fault-free run would
    have, so retries never perturb the dataset. *)

type policy = {
  max_attempts : int;    (** total attempts, including the first (>= 1) *)
  base_delay_s : float;  (** sleep before the first retry *)
  multiplier : float;    (** backoff factor per further retry (>= 1) *)
  max_delay_s : float;   (** backoff ceiling *)
}

val none : policy
(** One attempt, no retries — the default campaign behaviour. *)

val policy :
  ?base_delay_s:float ->
  ?multiplier:float ->
  ?max_delay_s:float ->
  max_attempts:int ->
  unit ->
  policy
(** Validated constructor; raises [Invalid_argument] on nonsense.  The
    backoff defaults to a 10 ms base delay, doubling, capped at 1 s. *)

val delay_for : policy -> attempt:int -> float
(** Backoff before retrying after failed attempt number [attempt]
    (1-based): [min max_delay_s (base_delay_s * multiplier^(attempt-1))]. *)

val with_retries :
  ?on_retry:(attempt:int -> exn -> unit) -> policy -> (unit -> 'a) -> 'a
(** [with_retries p f] runs [f] up to [p.max_attempts] times, sleeping
    {!delay_for} between attempts, and returns its first success.  The
    final failure is re-raised.  [Out_of_memory], [Stack_overflow] and
    [Sys.Break] are never retried — they are not transient.  [on_retry]
    is called before each sleep with the failed attempt number and its
    exception (telemetry hook). *)
