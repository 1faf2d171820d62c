(* The paper's worked example (Sec. 4.2 / Fig. 2): a 2-bit comparator
   under the abstract delay model (inverter = 1, two-input gate = 2).

     dune exec examples/comparator.exe

   Reproduces, step by step:
   - the critical path delay Δ = 7 and the speed-paths through !b0/!b1,
   - the SPCF Σ_y(Δ_y = 6.3) = !a1 + !a0·b1 (bit-exact vs. the paper),
   - the prediction ỹ and indicator e of the error-masking circuit,
   - and validates masking with the event-driven timing simulator. *)

let pi_names = [| "a0"; "a1"; "b0"; "b1" |]
let name_of v = pi_names.(v)

let () =
  let net = Comparator.network () in
  let options =
    { Masking.Synthesis.default_options with delay_model = Sta.Paper_units }
  in
  let m = Masking.Synthesis.synthesize ~options net in
  let ctx = m.Masking.Synthesis.ctx in
  let man = ctx.Spcf.Ctx.man in

  Format.printf "2-bit comparator: y = 1 iff a1a0 >= b1b0@.";
  Format.printf "critical path delay = %.1f (paper: %.1f)@."
    m.Masking.Synthesis.delta Comparator.paper_delta;
  Format.printf "target arrival Δ_y  = %.2f (paper: %.2f)@."
    m.Masking.Synthesis.target Comparator.paper_target;

  (* The SPCF, recovered as an irredundant SOP over the inputs. *)
  let po = List.hd m.Masking.Synthesis.per_output in
  let sigma_cover = Isop.of_bdd man po.Masking.Synthesis.sigma in
  Format.printf "SPCF Σ_y = %s   (paper: !a1 + !a0*b1)@."
    (Logic2.Cover.to_string ~names:name_of sigma_cover);
  let expected = Bdd.of_cover man Comparator.paper_spcf in
  assert (po.Masking.Synthesis.sigma = expected);
  Format.printf "  -> matches the paper bit for bit@.";

  (* Prediction and indicator functions of the masking circuit. *)
  let cnet = Mapped.network m.Masking.Synthesis.combined in
  let cf = Network.elaborate man cnet in
  let show name f =
    Format.printf "%s = %s@." name
      (Logic2.Cover.to_string ~names:name_of (Isop.of_bdd man f))
  in
  show "prediction ỹ" cf.(po.Masking.Synthesis.ytilde_combined);
  show "indicator  e" cf.(po.Masking.Synthesis.e_combined);
  Format.printf "(paper:  ỹ = (a0 + !b0)(a1 + !b1),  e = !a1 + b1 after simplification;@.";
  Format.printf " any functions with Σ ⊆ e ⊆ [ỹ = y] are equally valid — checked below)@.";
  assert (Bdd.bimply man po.Masking.Synthesis.sigma cf.(po.Masking.Synthesis.e_combined) = Bdd.btrue);
  assert (
    Bdd.bimply man
      cf.(po.Masking.Synthesis.e_combined)
      (Bdd.bxnor man cf.(po.Masking.Synthesis.y_combined) cf.(po.Masking.Synthesis.ytilde_combined))
    = Bdd.btrue);

  (* Demonstrate masking in time: age the comparator's speed-path gates
     by 30% and capture at the clock. (In the abstract unit model the
     output mux costs 2 units, so the clock is 9; smaller degradations
     still meet it.) *)
  let combined = m.Masking.Synthesis.combined in
  let model = Sta.Paper_units in
  let sta = Sta.analyze ~model combined in
  let clock = Sta.delta sta in
  let base = Sta.gate_delays model combined in
  let critical = Sta.critical_signals sta ~target:(0.9 *. clock) in
  let delays = Tsim.degraded_delays base ~factor:1.3 ~on:(fun s -> critical.(s)) in
  (* A transition that exercises a speed-path: b1 falls with a < b. *)
  let masked_errors = ref 0 and raw_errors = ref 0 and trials = ref 0 in
  let rng = Util.Rng.create 3 in
  for _ = 1 to 256 do
    let from_ = Array.init 4 (fun _ -> Util.Rng.bool rng) in
    let to_ = Array.init 4 (fun _ -> Util.Rng.bool rng) in
    incr trials;
    let r = Tsim.simulate combined ~delays ~from_ ~to_ ~clock in
    let cap s = r.Tsim.at_clock.(s) and fin s = r.Tsim.final.(s) in
    if cap po.Masking.Synthesis.y_combined <> fin po.Masking.Synthesis.y_combined then
      incr raw_errors;
    if cap po.Masking.Synthesis.masked_combined <> fin po.Masking.Synthesis.masked_combined
    then incr masked_errors
  done;
  Format.printf
    "timing simulation (30%% aging on speed-path gates, %d random transitions):@."
    !trials;
  Format.printf "  unprotected output errors: %d@." !raw_errors;
  Format.printf "  masked output errors:      %d@." !masked_errors;
  assert (!raw_errors > 0);
  assert (!masked_errors = 0);
  Format.printf "the error-masking circuit masks every speed-path timing error.@."
