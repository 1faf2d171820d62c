(** Dense truth tables for small arities (n ≤ 24); index [i] encodes the
    assignment whose variable [v] is [(i lsr v) land 1]. *)

type t

val create : int -> t
val num_vars : t -> int
val size : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit
val init : int -> (bool array -> bool) -> t
val of_cover : Cover.t -> t
val equal : t -> t -> bool
val lnot : t -> t
val minterms : t -> int list
val to_cover : t -> Cover.t
