(** Occurrence counts whose cost is their surplus: a bin holding [c]
    occurrences costs [max 0 (c - 1)].  All-Interval, Costas and N-Queens
    score a swap by removing the old occurrences it changes and adding the
    new ones.  Each update returns its exact change in cost, whatever order
    the updates run in, so their sum is the swap's cost delta. *)

val remove : int array -> int -> int
(** [remove counts k] takes one occurrence out of bin [k] and returns the
    change in cost ([-1] or [0]). *)

val add : int array -> int -> int
(** [add counts k] puts one occurrence into bin [k] and returns the change
    in cost ([0] or [1]). *)
