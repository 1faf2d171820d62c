(** Verification and overhead reporting for a synthesized masking
    circuit. This module is the one place that decides the paper's
    masking contract — the masked circuit matches the original, and
    [Σ_y ⊆ e_y ⊆ (ỹ = y)] on every critical output; lint's
    [Analysis.Contract] only renders its findings. [check] adds the
    20 % slack figure and the Table-2 area/power overheads. *)

(** One violation of the contract, naming the combined-circuit output
    it concerns. *)
type finding =
  | Absent of string  (** the combined circuit exposes an output the original lacks *)
  | Intrusive of string  (** an output is not equivalent to the original's *)
  | Uncovered of string  (** Σ_y ⊄ e_y: a speed-path pattern is left unmasked *)
  | Unsound of string  (** e_y ⊄ (ỹ = y): a raised e selects a wrong prediction *)

type report = {
  findings : finding list;  (** in {!findings} order; [[]] iff the contract holds *)
  coverage_pct : float;  (** share of Σ minterms that raise e *)
  critical_outputs : int;
  critical_minterms : Extfloat.t;
  delta_original : float;
  delta_masking : float;
  slack_pct : float;
  mux_delay_impact : float;
  area_original : float;
  area_total : float;
  area_overhead_pct : float;
  power_original : float;
  power_total : float;
  power_overhead_pct : float;
}

val findings : Synthesis.t -> finding list
(** The contract alone, without timing, area or power: equivalence
    findings over the combined circuit's outputs in output order (error
    logs skipped), then each critical output's [Uncovered] before its
    [Unsound]. Elaborates the combined circuit once, in the synthesis
    context's manager. *)

val check : ?power_rounds:int -> Synthesis.t -> report
(** {!findings} plus the figures above, from the same single
    elaboration. *)

val pp : Format.formatter -> report -> unit
