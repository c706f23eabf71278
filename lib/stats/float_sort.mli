(** In-place sort of a [float array] that allocates nothing.

    [sort a] leaves [a] exactly as [Array.sort Float.compare a] would,
    bit for bit, ties, NaN and signed zeros included: it is the same
    ternary heap sort making the same comparisons and the same moves.
    The difference is that the generic sort calls [Float.compare] through
    a closure and reads elements through the polymorphic array primitives,
    which box every float it touches; here the comparison is inlined on
    unboxed values. *)

val sort : float array -> unit
(** Ascending under [Float.compare]'s order: NaN first, [-0.] and [0.]
    equal (their relative order is the stdlib sort's). *)
