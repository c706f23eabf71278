(** The 128-bit mantissas of the powers of ten that {!Json.read_float}
    multiplies by (the Eisel–Lemire step), for the decimal exponents
    [min_q <= q <= max_q].  The range holds every [q] at which a mantissa
    of at most 19 digits can give a normal double. *)

val min_q : int
(** [-342] *)

val max_q : int
(** [308] *)

val table : int64 array
(** [table.(2 (q - min_q))] and [table.(2 (q - min_q) + 1)] are the high
    and low 64 bits of [c_q], the integer in [[2^127, 2^128)] that stands
    for [10^q = 5^q 2^q]: for [q >= 0], [5^q] shifted to 128 bits and cut
    down (exact for [q <= 55]); for [q < 0], the least integer above
    [2^b / 5^-q], for the one [b] that puts [c_q] in range.  Constant:
    nothing writes it. *)
