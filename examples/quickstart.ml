(* Quickstart: protect a logic circuit against timing errors on its
   speed-paths (the mechanism of the paper's Fig. 1).

     dune exec examples/quickstart.exe

   1. Build (or load) a technology-independent Boolean network.
   2. [Masking.Synthesis.synthesize] maps it, computes the SPCF of every
      critical output, synthesizes the error-masking circuit C̃, and
      returns the combined circuit: C, C̃, and a MUX21 in front of each
      critical output that selects the prediction ỹ whenever the
      indicator e is raised.
   3. [Masking.Verify.check] proves the construction: the masked circuit
      is combinationally equivalent to the original (the mux can never
      corrupt an output), every SPCF pattern raises e, e implies a
      correct prediction, and C̃ meets the 20% timing-slack requirement. *)

let () =
  (* A small synthetic control-logic block (seeded, reproducible). *)
  let net =
    Generator.generate
      {
        Generator.default_params with
        name = "quickstart";
        n_pi = 20;
        n_po = 6;
        n_nodes = 50;
        seed = 2026;
      }
  in
  Format.printf "original network:   %a@." Network.pp net;

  (* Synthesize the error-masking circuit. *)
  let m = Masking.Synthesis.synthesize net in
  Format.printf "critical path delay: %.3f, target arrival: %.3f@."
    m.Masking.Synthesis.delta m.Masking.Synthesis.target;
  Format.printf "critical outputs:    %d of %d@."
    (List.length m.Masking.Synthesis.per_output)
    (Array.length (Network.outputs net));
  List.iter
    (fun (po : Masking.Synthesis.per_output) ->
      Format.printf "  %-8s speed-path activation patterns: %s@."
        po.Masking.Synthesis.name
        (Extfloat.to_string
           (Bdd.satcount m.Masking.Synthesis.ctx.Spcf.Ctx.man po.Masking.Synthesis.sigma)))
    m.Masking.Synthesis.per_output;
  Format.printf "masking circuit:     %a@." Mapped.pp m.Masking.Synthesis.masking;
  Format.printf "combined circuit:    %a@." Mapped.pp m.Masking.Synthesis.combined;

  (* Verify everything and report the paper's Table-2 metrics. *)
  let r = Masking.Verify.check m in
  Format.printf "@[<v 2>verification:@ %a@]@." Masking.Verify.pp r;
  assert (r.Masking.Verify.findings = []);
  Format.printf "all checks passed: timing errors on speed-paths within 10%% of the@.";
  Format.printf "critical path delay are masked at the outputs, with zero functional risk.@."
