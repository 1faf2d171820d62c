(** Domain-parallel per-output SPCF computation.

    The per-output SPCFs are independent given the (immutable) mapped
    circuit. With [jobs > 1] on a shared-manager context
    ([Ctx.create ~shared:true]) all workers compute node handles
    directly in the one concurrent BDD manager — common subgraphs are
    interned once, and no export/import pass exists. Results are
    deterministic and function-identical to the sequential
    algorithms. With [jobs = 1] (the default) the sequential code
    path runs unchanged. The calling domain runs worker 0's share and
    spawns the rest; short-path workers share one stability memo.
    Obs collection composes with parallelism: workers record into
    domain-local collectors, and their snapshots are merged into the
    caller's registry in worker order after the join, so
    [--jobs N --stats] reports true parallel behaviour with per-domain
    attribution. *)

type algorithm = Short_path | Path_based

val default_jobs : unit -> int
(** [EMASK_JOBS] when set to a positive integer, else 1 (also when it
    is set but blank). A malformed or non-positive value raises
    [Invalid_argument] — the execution mode is never changed
    silently. *)

val auto_jobs : ?cap:int -> unit -> int
(** The hardware default for CLI entry points that opt into
    parallelism: [EMASK_JOBS] when set, else
    [Domain.recommended_domain_count ()] capped at [cap] (default 8).
    Reads [EMASK_JOBS] through the same parser as {!default_jobs}. *)

val compute : ?jobs:int -> Ctx.t -> algorithm:algorithm -> target:float -> Ctx.result
(** [jobs] defaults to [default_jobs ()]. The result — outputs in
    critical-output order, union, counts — is the same function set the
    sequential algorithm produces; only [runtime] (wall clock) and the
    internal node numbering of the shared manager may differ. Raises
    [Invalid_argument] when [jobs > 1] and the context's manager is
    not shared — there is no second execution mode to fall back to. *)

val short_path : ?jobs:int -> Ctx.t -> target:float -> Ctx.result
val path_based : ?jobs:int -> Ctx.t -> target:float -> Ctx.result

val needs_shared : jobs:int -> bool
(** Whether a run with [jobs] workers needs a shared-manager context
    ([Ctx.create ~shared:true]): [jobs > 1]. Every caller that builds a
    context for {!map} or {!compute} picks its backend with this. *)

val map : Ctx.t -> jobs:int -> 'a array -> ('a array -> 'b list) -> 'b list
(** [map ctx ~jobs items f] is [f items] computed by [k = min jobs n]
    workers over the context's manager — the one round-robin map
    behind {!compute}, ECO's per-output recompute and parallel path
    classification. [f] maps a chunk to one result per item, in chunk
    order; worker [j] gets items [j, j+k, j+2k, ...], and the results
    are re-interleaved into item order, so the answer is the same list
    for every [jobs]. With [k <= 1] this is a direct call of [f] on the
    whole array. Otherwise the calling domain runs worker 0's chunk
    itself and spawns [k - 1] domains for the rest.

    Raises [Invalid_argument] when [jobs > 1] and the manager is not
    shared. A worker that raises [Budget.Budget_exceeded] cancels
    [ctx.budget], so its team-mates stop at their next poll. Every
    worker is joined and every Obs snapshot merged (in worker order,
    worker 0 as ["worker 1"]) before anything is re-raised: first any
    other exception a worker raised, in worker order, then the first
    non-[Cancelled] budget reason. *)

val sigmas :
  Ctx.t ->
  jobs:int ->
  algorithm:algorithm ->
  (string * Network.signal) array ->
  target_units:int ->
  (string * Network.signal * Bdd.t) list
(** [sigmas ctx ~jobs ~algorithm outputs ~target_units] is the per-output
    Σ of [outputs], in order, computed through {!map}. Short-path
    workers share one fresh stability memo across the whole team
    (striped and locked when more than one worker runs). Path-based
    workers keep a fresh memo per output. *)

(**/**)

type dag = int array * int array * int array * int

val export : Bdd.man -> Bdd.t -> dag
val import : Bdd.man -> dag -> Bdd.t
(** Cross-manager BDD transport — the ECO snapshot format
    ([emask-eco/1]) and the tests' manager-independent comparison:
    postorder DAG with terminal ids 0/1 and internal ids offset by 2. *)
