(** Masking-contract verification: the paper's validity conditions for
    a synthesized masking circuit C̃, expressed as lint diagnostics.
    {!Masking.Verify} decides non-intrusiveness and indicator
    soundness; this module only renders its findings.

    - MASK003: every critical output of the combined circuit is driven
      by a MUX21 whose 0-input is the original output, 1-input the
      prediction ỹ, and select the indicator e (Sec. 4 mux insertion).
    - MASK001: non-intrusiveness — the combined circuit is
      combinationally equivalent to C on every original output (the
      mux can never corrupt a value) and exposes no other output.
    - MASK004: Σ_y ⊆ e_y (coverage) and e_y ⊆ (ỹ = y) (prediction
      soundness) for every critical output.
    - MASK002: the ≥ [margin] timing-slack contract — C̃'s critical
      path delay is at most [(1 - margin) · Δ(C)] (Sec. 4: at least
      {!Masking.Synthesis.slack_margin} = 20 % faster than C). *)

val of_findings : Masking.Synthesis.t -> Masking.Verify.finding list -> Diag.t list
(** MASK003 from the circuit's structure, then one MASK001 / MASK004
    diagnostic per finding, in order. *)

val check_slack : ?margin:float -> Masking.Synthesis.t -> Diag.t list

val check : ?margin:float -> Masking.Synthesis.t -> Diag.t list
(** All masking-contract passes, in the order above, from one
    {!Masking.Verify.findings} run. *)
