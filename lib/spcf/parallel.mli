(** Domain-parallel per-output SPCF computation.

    The per-output SPCFs are independent given the (immutable) mapped
    circuit. With [jobs > 1] all workers compute node handles
    directly in the context's concurrent BDD manager — common subgraphs are
    interned once, and no export/import pass exists. Results are
    deterministic and function-identical to the sequential
    algorithms. With [jobs = 1] (the default) the sequential code
    path runs unchanged. The calling domain runs worker 0's share and
    hands the rest to helper domains it keeps from call to call;
    short-path workers share one stability memo. Obs collection
    composes with parallelism: workers record into domain-local
    collectors, and their snapshots are merged into the caller's
    registry in worker order once every share has finished, so
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
    internal node numbering of the manager may differ. *)

val short_path : ?jobs:int -> Ctx.t -> target:float -> Ctx.result
val path_based : ?jobs:int -> Ctx.t -> target:float -> Ctx.result

val map : Ctx.t -> jobs:int -> 'a array -> ('a array -> 'b list) -> 'b list
(** [map ctx ~jobs items f] is [f items] computed by [k = min jobs n]
    workers over the context's manager — the one round-robin map
    behind {!compute}, ECO's per-output recompute and parallel path
    classification. [f] maps a chunk to one result per item, in chunk
    order; worker [j] gets items [j, j+k, j+2k, ...], and the results
    are re-interleaved into item order, so the answer is the same list
    for every [jobs]. With [k <= 1] this is a direct call of [f] on the
    whole array. Otherwise the calling domain runs worker 0's chunk
    itself and hands the other chunks to its helper domains: each
    calling domain spawns its helpers on first need, up to
    [min (k - 1) h] with [h = max 1 (Domain.recommended_domain_count ()
    - 1)], reuses them on every later call, and stops and joins them
    when it exits ([Domain.at_exit]). With [m - 1] helpers, domain [d]
    runs chunks [d, d+m, d+2m, ...] in turn; a spawn that fails (the
    runtime's cap on domains) leaves the chunks to the domains the
    team already has. A call made from inside one of its own shares
    runs [f] on the whole array.

    A worker that raises [Budget.Budget_exceeded] cancels
    [ctx.budget], so its team-mates stop at their next poll. Every
    share finishes and every Obs snapshot is merged (in worker order,
    worker 0 as ["worker 1"]) before anything is re-raised: first any
    other exception a worker raised, in worker order, then the first
    non-[Cancelled] budget reason. Every share records into a fresh Obs
    state, so nothing a helper records carries over to a later call. *)

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
