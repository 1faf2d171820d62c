(** Sum-of-products covers over variables [0 .. n-1]. Constant 0 is the
    empty cover; constant 1 is the cover containing the universe cube. *)

type t

val zero : int -> t
val one : int -> t
val of_cubes : int -> Cube.t list -> t
val cubes : t -> Cube.t list
val num_vars : t -> int
val num_cubes : t -> int
val num_literals : t -> int
val is_zero : t -> bool
val has_universe : t -> bool

val eval : t -> bool array -> bool
val union : t -> t -> t
val cofactor : t -> int -> bool -> t

val single_cube_containment : t -> t
(** Drop cubes contained in another single cube; also dedups. *)

val is_tautology : t -> bool

val covers_cube : ?dc:t -> t -> Cube.t -> bool
(** [covers_cube ~dc f c]: is every minterm of [c] in [f ∪ dc]? *)

val equivalent : t -> t -> bool

val complement : t -> t
(** Exact complement by unate-recursive Shannon expansion. *)

val product : t -> t -> t
val intersects : t -> t -> bool

val irredundant : ?dc:t -> t -> t
(** Remove cubes covered by the rest of the cover (plus don't-cares). *)

val minimize : ?dc:t -> t -> t
(** Espresso-lite: expand against the care-complement, then irredundant. *)

val support : t -> Bits.t
val pp : ?names:(int -> string) -> Format.formatter -> t -> unit
val to_string : ?names:(int -> string) -> t -> string
