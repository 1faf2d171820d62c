(** Non-negative reals [m × 2^e2] with an unbounded binary exponent, for
    minterm counts beyond IEEE-double range (up to 2^max_int). *)

type t

val zero : t
val one : t
val is_zero : t -> bool
val of_float : float -> t
val pow2 : int -> t
val mul_pow2 : t -> int -> t
val add : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool

val to_float : t -> float
(** May overflow to [infinity] for very large values. *)

val log2 : t -> float

val to_string : t -> string
(** Scientific notation (e.g. ["8.0e66"]), exact for huge exponents. *)

val pp : Format.formatter -> t -> unit
