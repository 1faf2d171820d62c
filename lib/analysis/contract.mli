(** Masking-contract verification: the paper's validity conditions for
    a synthesized masking circuit C̃, expressed as lint diagnostics.

    - MASK003: every critical output of the combined circuit is driven
      by a MUX21 whose 0-input is the original output, 1-input the
      prediction ỹ, and select the indicator e (Sec. 4 mux insertion).
    - MASK001: non-intrusiveness — the combined circuit is
      combinationally equivalent to C on every original output (the
      mux can never corrupt a value).
    - MASK004: Σ_y ⊆ e_y (coverage) and e_y ⊆ (ỹ = y) (prediction
      soundness) for every critical output.
    - MASK002: the ≥ [slack_margin] timing-slack contract — C̃'s
      critical path delay is at most [(1 - slack_margin) · Δ(C)]
      (Sec. 4: at least 20 % faster than C). *)

val check_mux_insertion : Masking.Synthesis.t -> Diag.t list
val check_non_intrusive : Masking.Synthesis.t -> Diag.t list
val check_indicator_soundness : Masking.Synthesis.t -> Diag.t list
val check_slack : ?margin:float -> Masking.Synthesis.t -> Diag.t list

val check : ?margin:float -> Masking.Synthesis.t -> Diag.t list
(** All masking-contract passes, in the order above. *)
