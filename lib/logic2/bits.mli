(** Fixed-width bitsets over [0 .. width-1]. Mutating operations ([set],
    [clear], [assign]) modify in place; all binary operations are pure. *)

type t

val create : int -> t
(** [create width] is the empty set over a universe of [width] bits. *)

val width : t -> int
val copy : t -> t

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
val assign : t -> int -> bool -> unit

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t

val is_empty : t -> bool
val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] iff every bit of [a] is set in [b]. *)

val disjoint : t -> t -> bool
val count : t -> int
val hash : t -> int

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int -> int list -> t
val first_set : t -> int option
val pp : Format.formatter -> t -> unit
