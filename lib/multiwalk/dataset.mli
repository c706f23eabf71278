(** Runtime datasets: named vectors of observations with CSV persistence —
    the artifact the paper's Section 5 produces ("about 650 runtimes for
    each" benchmark) and Section 6 consumes.

    A dataset carries its {e censored} observations (runs that hit their
    budget unsolved, recorded at the value they reached) alongside the
    solved ones, instead of silently dropping them: the censored fraction
    is exactly what {!Lv_core.Fit} needs to warn that a fitted
    distribution is truncated (Hoos & Stützle's censoring pitfall), and
    what censoring-aware estimators like
    {!Lv_stats.Mle.exponential_censored} consume. *)

type t = {
  label : string;            (** e.g. ["costas-17"] *)
  metric : string;           (** ["iterations"] or ["seconds"] *)
  values : float array;      (** solved runs *)
  censored : float array;    (** unsolved runs, right-censored at their budget *)
}

val create :
  ?censored:float array -> label:string -> metric:string -> float array -> t
(** Raises [Invalid_argument] on an empty solved vector.  [censored]
    defaults to empty. *)

val of_observations : label:string -> metric:[ `Iterations | `Seconds ] -> Run.observation list -> t
(** Project a campaign's observations onto one metric: solved runs into
    [values], unsolved (budget-censored) runs into [censored]. *)

val synthetic : label:string -> Lv_stats.Distribution.t -> rng:Lv_stats.Rng.t -> int -> t
(** [synthetic ~label d ~rng n] draws [n] i.i.d. runtimes from [d] — the
    stand-in for the paper's cluster datasets when replaying its published
    fitted parameters. *)

val size : t -> int
(** Solved observations only. *)

val n_censored : t -> int
val censored_fraction : t -> float
(** [n_censored / (size + n_censored)]. *)

val summary : t -> Lv_stats.Summary.t
val empirical : t -> Lv_stats.Empirical.t

val save_csv : t -> string -> unit
(** Header + rows: [index,value,status] with status [solved] or
    [censored]; censored rows follow the solved ones.  Deterministic:
    equal datasets serialize to identical bytes. *)

val load_csv : string -> t
(** Reads back files written by {!save_csv}, label and metric included, as
    well as any one- or two-column CSV ([value] or [index,value]; such rows
    load as solved, under the file's base name and metric ["unknown"]).
    At most one non-numeric header row is skipped, and only before the
    first data row; any other malformed row, and any [nan]/[inf] value,
    raises [Failure] naming the file and line — bad rows no longer vanish
    silently, and non-finite values no longer crash downstream in
    {!Lv_stats.Empirical.of_array}. *)
