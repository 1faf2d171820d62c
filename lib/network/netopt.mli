(** Technology-independent network optimization: constant folding, wire
    collapsing, bounded elimination (inlining small node functions into
    their fanouts) and XOR-chain rebalancing. Function-preserving; used
    between don't-care simplification and technology mapping. *)

type limits = {
  max_sub_cubes : int;  (** largest cover (in cubes) eligible for inlining *)
  max_result_cubes : int;  (** size bound on a fanout cover after inlining *)
  passes : int;
}

val rebalance_xor : Network.t -> Network.t
(** Rebuild maximal single-fanout XOR/XNOR chains as balanced trees. *)

val collapse_chains : ?min_len:int -> Network.t -> Network.t
(** Collapse single-fanout chains by balanced composition of per-node
    affine decompositions f(x,s) = (x ∧ A(s)) ⊕ B(s) — the
    carry-lookahead trick. Depth O(log m) for an m-node chain. *)

val optimize : ?limits:limits -> ?collapse:bool -> Network.t -> Network.t
(** Full pipeline: repeated elimination passes, dead-logic sweep, XOR
    rebalancing, and (with [collapse]) affine chain collapsing. The
    result is functionally equivalent (checkable with
    [Network.equivalent]). *)
