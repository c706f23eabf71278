(** One sequential Las Vegas run — the unit of observation for everything
    else: a (wall-clock seconds, iterations) pair of a single Adaptive
    Search execution.

    A run may carry a {!budget}: a wall-time limit, an iteration cap, or
    both.  Budgets are enforced {e cooperatively} — the solver polls the
    run's deadline at iteration boundaries — so a run that exceeds its
    budget ends as an unsolved, {e right-censored} observation (its
    [iterations]/[seconds] say how far it got before the budget struck)
    instead of hanging its worker.  Downstream, censored observations are
    carried alongside the solved ones (see {!Dataset}) rather than
    silently dropped: dropping them biases the fitted runtime
    distribution (Hoos & Stützle's censoring pitfall). *)

type observation = {
  seconds : float;    (** monotonic wall-clock time of the run *)
  iterations : int;   (** solver iterations — the machine-independent metric *)
  solved : bool;      (** [false] ⇒ the run is censored at [iterations] *)
}

type budget = {
  max_seconds : float option;    (** wall-time limit (monotonic clock) *)
  max_iterations : int option;   (** iteration cap *)
}

val seed : seed:int -> int -> int
(** [seed ~seed r] is the generator seed of run [r] of a campaign seeded
    [seed], and of walker [r] of a race: [seed + r].  It is the one place
    a run seed is computed — campaigns, their run-logs and races all go
    through it — so runs are reproducible one by one, whatever executes
    them, and a resumed campaign recognises its own log. *)

val budget : ?max_seconds:float -> ?max_iterations:int -> unit -> budget
(** Validated constructor.  Raises [Invalid_argument] on a negative or
    non-finite [max_seconds], or a nonpositive [max_iterations]. *)

val once :
  ?params:Lv_search.Params.t ->
  ?budget:budget ->
  rng:Lv_stats.Rng.t ->
  Lv_search.Csp.packed ->
  observation
(** Run the solver once on a fresh random configuration.  Durations are
    measured on the monotonic {!Lv_telemetry.Clock} and are therefore
    always nonnegative.  [budget] (default: no limits) caps the run:
    [max_iterations] tightens the solver's own iteration budget;
    [max_seconds] sets a deadline that many seconds after the run starts,
    on the same monotonic clock, which the solver's stop hook polls (every
    1024 iterations, so the overrun is at most one polling interval).  A budget-struck run returns with
    [solved = false]. *)
