(** Synthesis of the error-masking circuit (paper Sec. 4): SPCF-driven
    simplification of the technology-independent network, indicator
    construction, network optimization, mapping, and mux insertion. *)

type indicator =
  | Structural
      (** e_y = AND of per-node indicators e_{n_j} = n⁰ ⊕ n¹ (Eqn. 2) *)
  | Direct
      (** e_y synthesized from the BDD interval Σ_y ⊆ e ⊆ (ỹ = y) *)

type algorithm = Spcf.Governed.algorithm = Short_path | Path_based | Node_based

type cube_order = Ascending | Descending | Unsorted

type options = {
  theta : float;  (** target arrival factor; the paper uses 0.9 *)
  algorithm : algorithm;  (** SPCF computation engine *)
  indicator : indicator;
  cube_order : cube_order;  (** essential-weight scan order (ablation) *)
  simplify_e : bool;  (** the paper's final e cube elimination *)
  optimize : bool;  (** run Netopt on T̃ before mapping *)
  collapse : bool;  (** allow affine chain collapsing *)
  map_style : Mapper.style;
  log_errors : bool;  (** add e·(y⊕ỹ) outputs for wearout logging *)
  delay_model : Sta.delay_model;
  prune_false_paths : bool;
      (** opt-in (default [false]): drop a critical output from the
          masking cover when {e both} every near-critical path to it
          proves statically false ([Sensitization]) {e and} its SPCF
          Σ_y is empty. The indicator [e] shrinks while
          [Σ ⊆ e ⊆ (ỹ = y)] is preserved — Σ_y of a pruned output is
          empty, so dropping it removes nothing from Σ. Only the
          exact tier prunes; fallback tiers carry no certificate. *)
  jobs : int;
      (** SPCF worker domains ([Spcf.Parallel]); 0 = inherit
          [EMASK_JOBS], 1 = sequential (default) *)
  budget : Budget.spec;
      (** resource governance. [Budget.no_limits] (the default) runs
          the ungoverned path unchanged; otherwise [synthesize] walks
          the degradation ladder exact → node-based → always-on
          ([Spcf.Governed]), rerunning the whole construction in a
          fresh governed context per tier, and records the landing
          tier in the result — degradation is observable, never a
          crash and never silent. *)
}

val default_options : options

type per_output = {
  name : string;
  tier : Spcf.Governed.tier;  (** ladder tier this output landed on *)
  sigma : Bdd.t;  (** the SPCF Σ_y, over the context's manager *)
  y_combined : Network.signal;  (** unprotected output inside [combined] *)
  ytilde_combined : Network.signal;
  e_combined : Network.signal;
  masked_combined : Network.signal;  (** the MUX21 output *)
  err_combined : Network.signal option;  (** e·(y⊕ỹ) when logging *)
}

type t = {
  source : Network.t;
  original : Mapped.t;  (** C *)
  ctx : Spcf.Ctx.t;
  spcf : Spcf.Ctx.result;
  masking_net : Network.t;  (** T̃ after optimization *)
  masking : Mapped.t;  (** C̃, standalone: inputs = PIs, outputs ỹ_i / e_i *)
  combined : Mapped.t;  (** C + C̃ + output muxes; original output names *)
  per_output : per_output list;
  options : options;
  target : float;
  delta : float;
  tier : Spcf.Governed.tier;
      (** the ladder tier the synthesis landed on ([Exact] whenever
          [options.budget = Budget.no_limits]) *)
  attempts : (Spcf.Governed.tier * Budget.reason) list;
      (** budget walls hit by the tiers that did {e not} complete *)
  pruned : string list;
      (** critical outputs dropped from the cover as provably false
          (empty unless [prune_false_paths] was set) *)
}

val synthesize : ?options:options -> Network.t -> t
(** Never raises [Budget.Budget_exceeded]: the always-on floor tier
    runs ungoverned and always completes, with Σ = 1 preserving every
    node function exactly (so ỹ = y) and e ≡ 1. *)

(**/**)

val select_cubes :
  man:Bdd.man ->
  order:cube_order ->
  sigma:Bdd.t ->
  fanin_bdds:Bdd.t array ->
  Logic2.Cover.t ->
  Logic2.Cover.t
(** Greedy essential-weight cube selection (exposed for tests). *)

val bdds_in_man : Bdd.man -> Network.t -> Bdd.t array
(** Elaborate a network's signals in an existing manager (input orders
    must agree); exposed for verification code. *)
