(** Histograms — the observation-vs-fitted-density plots of the paper's
    Figures 8, 10 and 12, rendered as data series and as quick terminal
    bar charts. *)

type t = {
  lo : float;            (** lower edge of the first bin *)
  width : float;         (** common bin width *)
  counts : int array;    (** per-bin counts *)
  total : int;           (** total number of observations binned *)
}

type binning =
  | Bins of int             (** exactly this many equal-width bins *)
  | Sturges                 (** ⌈log2 n⌉ + 1 bins *)
  | Freedman_diaconis       (** width 2·IQR·n^(-1/3), robust default *)

val make : ?binning:binning -> float array -> t
(** Bin a nonempty sample over its own range (default
    [Freedman_diaconis], falling back to [Sturges] when the IQR is 0). *)

val n_bins : t -> int
val bin_center : t -> int -> float

val density : t -> int -> float
(** Normalized density of bin [i]: count / (total · width), so the histogram
    integrates to 1 and is directly comparable with a pdf. *)

val render : ?max_width:int -> ?pdf:(float -> float) -> t -> string
(** ASCII bar chart; when [pdf] is given, each line also shows the fitted
    density at the bin center so histogram and fit can be eyeballed side by
    side (the textual analogue of Figures 8/10/12). *)
