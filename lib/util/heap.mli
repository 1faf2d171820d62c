(** Binary min-heap keyed by floats. *)

type 'a t

val create : 'a -> 'a t
(** [create dummy] — [dummy] fills vacated slots (any value). *)

val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> float -> 'a -> unit
val pop : 'a t -> (float * 'a) option

(** The heap is stable: among equal keys, pop order is push order. *)
