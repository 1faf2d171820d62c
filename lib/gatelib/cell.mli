(** Standard-cell library modeled on lsi_10k. *)

type t = {
  cname : string;
  arity : int;
  area : float;
  delay : float;
  input_cap : float;
  logic : Logic2.Cover.t;
}

val make : string -> int -> float -> float -> float -> string -> t
(** [make name arity area delay input_cap sop] with variables a,b,c,d. *)

val inv : t
val buf : t
val nd2 : t
val an2 : t
val or2 : t
val eo : t

val mux21 : t
(** Pin convention: a = 0-input, b = 1-input, c = select. *)

val all : t list
val find : string -> t option

val and_cells : t array
(** AND cells indexed by [arity - 2] (2..4 inputs). *)

val or_cells : t array
