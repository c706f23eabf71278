(** Text rendering of the reproduction's tables and figure series — the
    terminal counterpart of the paper's tables and plots. *)

val table :
  title:string -> header:string list -> rows:string list list -> string
(** Fixed-width table with a title rule.  Column widths adapt to content. *)

val float_cell : ?decimals:int -> float -> string
(** Human-friendly float: fixed decimals below 1e6, scientific beyond. *)

val speedup_series : title:string -> Speedup.point list -> string
(** A speed-up curve as aligned (cores, speed-up) pairs plus a side bar
    chart — how the reproduction prints its figures. *)

val section : string -> string
(** Banner line separating bench sections. *)
