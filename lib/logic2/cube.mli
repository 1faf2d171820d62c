(** Cubes (product terms) over variables [0 .. n-1]. The contradictory
    (empty) cube is unrepresentable: operations that would produce it
    return [None]. *)

type polarity = Pos | Neg | Absent

type t

val universe : int -> t
(** The tautology cube (no literals) over [n] variables. *)

val num_vars : t -> int

val make : int -> (int * bool) list -> t
(** [make n lits] builds a cube from [(var, phase)] literals; [true] is
    the positive phase. Raises [Invalid_argument] on out-of-range or
    contradictory literals. *)

val polarity : t -> int -> polarity
val literals : t -> (int * bool) list
val num_literals : t -> int
val is_universe : t -> bool

val equal : t -> t -> bool
val hash : t -> int

val compare_by_literals : t -> t -> int
(** Orders by ascending literal count (the paper's cube-selection order),
    breaking ties structurally for determinism. *)

val covers : t -> t -> bool
(** [covers c1 c2] iff every minterm of [c2] is a minterm of [c1]. *)

val intersect : t -> t -> t option
val disjoint : t -> t -> bool

val distance : t -> t -> int
(** Number of variables on which the cubes take opposite polarities. *)

val cofactor : t -> int -> bool -> t option
val with_literal : t -> int -> bool -> t option
val remove_var : t -> int -> t
val consensus : t -> t -> t option
val eval : t -> bool array -> bool
val support : t -> Bits.t

val pp : ?names:(int -> string) -> Format.formatter -> t -> unit
val to_string : ?names:(int -> string) -> t -> string
