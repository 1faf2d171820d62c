(** Near-critical structural path enumeration over a timed circuit.

    A structural path runs from a primary input to a primary output;
    its length is the sum of driving-gate delays along it.
    [enumerate] lists every path longer than the target
    [(1 - band) * Delta] — the topological near-critical band whose
    members functional sensitization analysis classifies one by one
    ({!Sensitization} in the analysis layer). *)

type path = {
  output : string;  (** primary-output name the path terminates in *)
  signals : Network.signal array;  (** primary input first, output last *)
  length : float;  (** sum of gate delays along the path *)
}

type t = {
  band : float;
  target : float;  (** [(1 - band) * Delta] *)
  paths : path list;  (** grouped by output, outputs in declaration order *)
  truncated : bool;  (** enumeration stopped at the [max_paths] cap *)
}

val default_band : float
(** [0.1]: paths within 10% of the critical delay, the paper's band. *)

val default_max_paths : int
(** [4096]. *)

val enumerate : ?band:float -> ?max_paths:int -> Sta.t -> t
(** Exact and deterministic: every structural path with
    [length > target + Sta.eps] is produced exactly once, outputs in
    declaration order and paths within an output in fanin-DFS order,
    unless the [max_paths] cap ({!default_max_paths}) stops the walk — which
    sets [truncated] rather than failing or dropping paths silently.
    [band] defaults to {!default_band} and must lie in [[0, 1]]; a gate wired to
    one signal on several pins contributes a single path. Raises
    [Invalid_argument] on out-of-range parameters. *)

val num_paths : t -> int

val to_string : Network.t -> path -> string
(** ["a -> n1 -> y (3.000)"] — signal names joined along the path,
    length appended. *)
