(** Budget-governed SPCF with graceful degradation.

    The paper's Table 1 orders the SPCF variants by tightness: the exact
    short-path SPCF, the path-based SPCF, and the node-based
    over-approximation of Su et al. [22]. Any over-approximation of Σ
    still yields a sound masking circuit — the indicator fires more
    often, the prediction stays correct — so when the exact computation
    exhausts its resource budget we can fall back a tier instead of
    failing:

    - tier 1 ({!Exact}): the requested algorithm, under the budget;
    - tier 2 ({!Node_fallback}): node-based SPCF in a fresh context,
      under a renewed budget (same deadline and quotas, fresh counters);
    - tier 3 ({!Always_on}): Σ_y := 1 for every critical output —
      "assume every pattern exercises a speed-path", the maximal sound
      over-approximation. This floor runs ungoverned and always
      completes (its only BDD work is building the circuit's global
      functions).

    Degradation is observable, never silent: fallbacks bump the
    [spcf.fallback.*] counters, each tier records its critical-output
    count in a per-tier histogram, and the outcome names the tier and
    every budget wall that was hit on the way down. *)

type algorithm = Short_path | Path_based | Node_based

type tier = Exact | Node_fallback | Always_on

val tier_to_string : tier -> string
(** ["exact"], ["node-based"], ["always-on"]. *)

type outcome = {
  ctx : Ctx.t;  (** the context of the tier that completed *)
  result : Ctx.result;
  tier : tier;
  attempts : (tier * Budget.reason) list;
      (** budget walls hit by the tiers that did {e not} complete, in
          ladder order; [[]] iff [tier = Exact] *)
}

val compute :
  ?jobs:int ->
  ?model:Sta.delay_model ->
  ?spec:Budget.spec ->
  algorithm:algorithm ->
  theta:float ->
  Mapped.t ->
  outcome
(** Run the ladder. With [spec = Budget.no_limits] (the default) this
    is exactly the ungoverned computation — same context, same result,
    bit for bit. On success of any tier the context's manager budget is
    lifted, so downstream consumers (satcounts, verification) are not
    tripped by a quota the construction already survived. *)

val jobs_of : int -> int
(** The worker-domain count of a run: [jobs] when positive, else
    [Parallel.default_jobs ()] ([EMASK_JOBS]). *)

val run_tier :
  ?jobs:int ->
  model:Sta.delay_model ->
  budget:Budget.t ->
  theta:float ->
  tier ->
  algorithm ->
  Mapped.t ->
  Ctx.t * Ctx.result
(** One tier's fresh context and Σ, at target [theta *. delta]: the
    requested [algorithm] on [Exact], node-based on [Node_fallback],
    Σ_y = 1 for every critical output on [Always_on]. [jobs] is
    resolved by {!jobs_of} (default [0]: [EMASK_JOBS]) and matters only
    when the tier runs an exact algorithm. *)

val ladder :
  spec:Budget.spec ->
  algorithm:algorithm ->
  (budget:Budget.t -> tier:tier -> attempts:(tier * Budget.reason) list -> 'a) ->
  'a
(** The one walk of the ladder, shared by {!compute} and
    [Masking.Synthesis.synthesize]. [body] runs one tier from scratch
    under [budget]; [attempts] are the walls hit so far. With
    [spec = Budget.no_limits] it is the single call
    [body ~budget:Budget.unlimited ~tier:Exact ~attempts:[]]. Otherwise
    a [Budget.Budget_exceeded] from tier 1 falls to tier 2 under
    [Budget.renew] (skipped when [algorithm = Node_based]), and from
    tier 2 to the unbudgeted [Always_on] floor, bumping the
    [spcf.fallback.*] counter of each landing tier.
    [Budget_exceeded Cancelled] aborts the walk instead: nobody wants
    the result. *)
