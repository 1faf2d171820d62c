(** Exact SPCF computation under floating-mode timing semantics
    (the paper's Eqn. 1, refined per output value). *)

type options = {
  arrival_shortcut : bool;
      (** cut recursion once the budget reaches the structural arrival
          time — the "short-path" insight of the proposed algorithm *)
  share_across_outputs : bool;
      (** share the (signal, value, budget) memo table between outputs *)
}

val proposed_options : options
val path_based_options : options

(** The (signal, value, time budget) stability memo: an open-addressing
    table over packed int keys. *)
module Memo : sig
  type t

  val create : shared:bool -> t
  (** [~shared:true] is the team memo of a parallel run: striped, each
      stripe behind a mutex, safe to use from several domains computing
      in one shared manager. Entries are insert-if-absent; since a
      value is a canonical handle, a key computed twice by two workers
      holds the same value either way. [~shared:false] takes no lock
      and belongs to one domain. *)

  val length : t -> int
  (** Distinct keys held. *)
end

val compute :
  Ctx.t -> opts:options -> algorithm:string -> target:float -> Ctx.result

val sigmas :
  ?memo:Memo.t ->
  Ctx.t ->
  opts:options ->
  outputs:(string * Network.signal) array ->
  target_units:int ->
  (string * Network.signal * Bdd.t) list
(** Per-output SPCFs for an explicit output set (no [Ctx.result]
    wrapper) — the unit of work one parallel worker performs. The memo
    ([memo], default a fresh unshared one) is shared across the given
    outputs iff [opts.share_across_outputs]; a team of workers passes
    one [Memo.create ~shared:true] to share it across the team too. *)

val sigmas_lateness :
  Ctx.t ->
  outputs:(string * Network.signal) array ->
  target_units:int ->
  (string * Network.signal * Bdd.t) list
(** Same, in the lateness (product-of-sums) formulation the path-based
    extension uses: fresh memo per output. *)

val short_path : Ctx.t -> target:float -> Ctx.result
(** The paper's proposed algorithm: exact, with memoized time budgets
    and the structural-arrival shortcut. *)

val path_based : Ctx.t -> target:float -> Ctx.result
(** The exact path-based extension of [22]: same result, explores
    path-delay suffixes without the shortcut or cross-output sharing. *)

val floating_delay : Ctx.t -> Network.signal -> float
(** Exact floating-mode (sensitizable) delay of a signal — the largest
    stabilization time over all input patterns. At most the structural
    arrival time; the gap is the signal's false-path slack. *)

val pattern_arrivals : Ctx.t -> bool array -> bool array * int array
(** [(values, arrival_units)] — exact floating-mode stabilization times
    of every signal for one input pattern (reference semantics). *)
