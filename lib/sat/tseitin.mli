(** Tseitin CNF encoding of Boolean networks and a SAT miter. *)

type encoding = {
  solver : Dpll.t;
  var_of_signal : int array;
  next_var : int ref;
}

type input = Const of bool | Lit of Dpll.literal
(** A cover input binding: a solver literal, or a constant partially
    evaluating the cover during encoding. *)

val encode_sop : Dpll.t -> int ref -> Logic2.Cover.t -> input array -> input
(** [encode_sop solver next_var cover binds] CNF-encodes the SOP
    [cover] under per-variable bindings [binds] (indexed by the
    cover's local variable numbers), allocating auxiliary variables
    from [next_var]. Cubes are reduced under the constant bindings, so
    the result may itself be a [Const] when the bindings decide the
    cover outright. *)

val equivalent : Network.t -> Network.t -> bool
(** SAT-based combinational equivalence (inputs/outputs matched by
    name) — independent of [Network.equivalent]. *)
