(** Static path-sensitization analysis over the near-critical band.

    Classifies every near-critical structural path ({!Paths}) by its
    static sensitization condition — side inputs non-controlling along
    the path, compiled as the AND of per-gate Boolean differences into
    the context's BDD manager — as [True] (satisfiable, with a witness
    pattern found by the independent {!Dpll} engine and re-checked
    against the BDD), [False] (the zero function: no input pattern
    sensitizes the path), or [Unknown] (the budget governor ran out;
    sound — consumers must treat the path as possibly sensitizable).

    Verdicts are a pure per-path function of the circuit, so reports
    are byte-identical for every [jobs] value under an unlimited
    budget; under a finite budget only the [True]/[False] → [Unknown]
    frontier may shift.

    Static sensitization is optimistic for floating-mode delay: a
    statically-false path can still carry a transition under
    multi-input switching. [Masking.Synthesis] therefore prunes an
    output only when its SPCF Σ_y is additionally empty; the
    [functional] bounds reported here are valid for single-input-change
    delay (see DESIGN.md §14). *)

type verdict =
  | True of bool array  (** SAT witness, indexed by primary-input position *)
  | False
  | Unknown of Budget.reason

type classified = { path : Paths.path; verdict : verdict }

type summary = {
  output : string;
  signal : Network.signal;
  num_paths : int;  (** near-critical paths terminating here *)
  num_true : int;
  num_false : int;
  num_unknown : int;
  topological : float;  (** STA arrival time of the output *)
  functional : float;
      (** sound upper bound on the single-input-change functional
          delay: max length over non-[False] near-critical paths, the
          band target when all proved [False], the topological arrival
          when enumeration truncated *)
}

type report = {
  band : float;
  target : float;  (** [(1 - band) * Delta] *)
  delta : float;
  model : Sta.delay_model;
  truncated : bool;
  jobs : int;
  paths : classified list;  (** in {!Paths.enumerate} order *)
  summaries : summary list;  (** every primary output, declaration order *)
  functional_delta : float;  (** max over the per-output bounds *)
}

val analyze :
  ?model:Sta.delay_model ->
  ?band:float ->
  ?max_paths:int ->
  ?jobs:int ->
  ?budget:Budget.t ->
  Mapped.t ->
  report
(** Build a context and classify. [band] defaults to [0.1],
    [max_paths] to [4096], [jobs] to [1]; [jobs > 1] builds a
    shared-manager context and fans classification across domains via
    [Spcf.Parallel]. Budget exhaustion never escapes: a path whose
    classification runs out is [Unknown], and if the budget dies while
    the circuit's BDDs are built, every path is [Unknown]. Raises
    [Invalid_argument] on [band] outside [[0, 1]] or [max_paths < 1]. *)

val analyze_ctx : ?band:float -> ?max_paths:int -> ?jobs:int -> Spcf.Ctx.t -> report
(** Same over an existing context (the synthesis integration point),
    fanned out by [Spcf.Parallel.map]: [jobs > 1] requires a
    shared-manager context and raises [Invalid_argument] otherwise. *)

val classify_paths : Spcf.Ctx.t -> Paths.path list -> classified list
(** Classify an explicit path subset sequentially (one shared
    Boolean-difference cache), in list order. The incremental/ECO
    integration point: [Eco.recompute] reuses verdicts for paths whose
    fanin cone is untouched and classifies only the stale remainder. *)

val assemble : Spcf.Ctx.t -> jobs:int -> Paths.t -> classified list -> report
(** Build a {!report} from an enumeration and its classified paths
    (which must be in {!Paths.enumerate} order). *)

val verdict_name : verdict -> string
(** ["true"], ["false"] or ["unknown"]. *)

val false_outputs : report -> string list
(** Outputs whose every near-critical path (at least one) proved
    [False] — empty whenever the enumeration truncated, since missed
    paths may be sensitizable. *)

val counts : report -> int * int * int
(** [(true, false, unknown)] verdict totals. *)
