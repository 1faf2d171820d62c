(** Shared state for SPCF computation on a mapped circuit. *)

type t = {
  circuit : Mapped.t;
  model : Sta.delay_model;
  sta : Sta.t;
  man : Bdd.man;
  funcs : Bdd.t array;
  delay_units : int array;
  arrival_units : int array;
  primes : int array array array;
      (** [primes.((s lsl 1) lor v)]: the on-set ([v = 1]) or off-set
          ([v = 0]) prime cubes of gate [s]'s cell in cover order, each
          an array of literals [(pin lsl 1) lor phase] in literal order,
          [pin] indexing [Network.fanins (network t) s]; shared by all
          gates of one cell, empty for non-gates. Immutable once
          built. *)
  budget : Budget.t;  (** governs [man]; [Budget.unlimited] by default *)
}

val grid : float
(** Delay lattice step (0.01 units); all cell delays are exact multiples. *)

val units_of_delay : float -> int
val units_of_target : float -> int
val create :
  ?model:Sta.delay_model -> ?budget:Budget.t -> ?shared:bool -> Mapped.t -> t
(** [budget] governs the context's BDD manager from construction on:
    both [to_bdds] and every subsequent SPCF computation can raise
    [Budget.Budget_exceeded]. Every context's manager is concurrent
    ({!Bdd.create}), so worker domains can compute SPCFs directly in
    it. [shared] is accepted and ignored: it chose between two BDD
    backends, of which one remains, and the benchmark's probes still
    pass it. *)

val of_funcs :
  model:Sta.delay_model ->
  sta:Sta.t ->
  budget:Budget.t ->
  Mapped.t ->
  Bdd.man ->
  Bdd.t array ->
  t
(** The context over node functions already elaborated in a manager
    ([funcs.(s)] for every signal [s] of the circuit): derives the
    grid delays, the structural arrival times and the prime tables.
    {!create} is [of_funcs] after [Sta.analyze] and [Network.to_bdds];
    ECO's incremental recompute calls it with its partly reused
    functions. *)

val network : t -> Network.t

val delta : t -> float

val paper_theta : float
(** The paper's target arrival factor, 0.9: the default [theta] of
    masking synthesis and of [Eco.snapshot]. *)

val target_of_theta : t -> float -> float

type result = {
  target : float;
  algorithm : string;
  outputs : (string * Network.signal * Bdd.t) list;
      (** the SPCF Σ_y for every critical primary output *)
  union : Bdd.t;  (** OR of the per-output SPCFs *)
  runtime : float;  (** wall-clock seconds for the computation *)
}

val count : t -> result -> Extfloat.t
(** Number of critical patterns (minterms of the union SPCF). *)

val num_critical_outputs : result -> int

val make_result :
  t ->
  algorithm:string ->
  target:float ->
  (string * Network.signal * Bdd.t) list ->
  runtime:float ->
  result
