(* Variable-latency ("telescopic") units from the SPCF — the original
   application of speed-path characteristic functions (Benini et al.
   [27, 28], which the paper's Sec. 3 builds on).

   A telescopic unit clocks the combinational block at the reduced
   period θΔ. A hold function raised exactly on the speed-path
   activation patterns stretches those computations over a second
   cycle; everything else completes in one. The indicator logic e_y of
   the masking circuit is precisely such a hold function (Σ_y ⊆ e_y and
   e_y is safe), so the masking synthesis doubles as telescopic-unit
   synthesis: hold = OR of the per-output indicators.

   Expected latency under uniform inputs is 1 + P(hold); the unit beats
   the fixed-clock design whenever θ (1 + P(hold)) < 1 + θ, i.e. for any
   sparse hold function. *)

type report = {
  fast_clock : float; (* θΔ *)
  slow_clock : float; (* Δ — the fixed-clock baseline *)
  hold_probability : float; (* P(hold) under uniform inputs *)
  expected_latency_cycles : float; (* 1 + P(hold) *)
  expected_time : float; (* θΔ (1 + P(hold)) *)
  speedup_vs_fixed : float; (* Δ / expected_time *)
  hold_exact_probability : float; (* P(Σ) — the ideal (exact-SPCF) hold *)
}

let analyze (m : Synthesis.t) =
  let ctx = m.Synthesis.ctx in
  let man = ctx.Spcf.Ctx.man in
  let nvars = Bdd.nvars man in
  let space = Extfloat.pow2 nvars in
  (* hold = OR over critical outputs of e_y, evaluated on the combined
     circuit's BDDs (the e signals of the masking circuit). *)
  let cnet = Mapped.network m.Synthesis.combined in
  let cf = Network.elaborate man cnet in
  let hold =
    List.fold_left
      (fun acc (po : Synthesis.per_output) ->
        Bdd.bor man acc cf.(po.Synthesis.e_combined))
      Bdd.bfalse m.Synthesis.per_output
  in
  let p_of f = Extfloat.to_float (Extfloat.div (Bdd.satcount man f) space) in
  let p_hold = p_of hold in
  let p_sigma = p_of m.Synthesis.spcf.Spcf.Ctx.union in
  let fast_clock = m.Synthesis.target in
  let slow_clock = m.Synthesis.delta in
  let expected_latency = 1. +. p_hold in
  let expected_time = fast_clock *. expected_latency in
  {
    fast_clock;
    slow_clock;
    hold_probability = p_hold;
    expected_latency_cycles = expected_latency;
    expected_time;
    speedup_vs_fixed = slow_clock /. expected_time;
    hold_exact_probability = p_sigma;
  }

(* Functional validation: whenever hold is low, every critical output
   has settled by the fast clock (its floating arrival is within θΔ) —
   checked per pattern with the exact stabilization times. *)
let validate ?(samples = 2000) ?(seed = 77) (m : Synthesis.t) =
  let ctx = m.Synthesis.ctx in
  let man = ctx.Spcf.Ctx.man in
  let cnet = Mapped.network m.Synthesis.combined in
  let cf = Network.elaborate man cnet in
  let target_units = Spcf.Ctx.units_of_target m.Synthesis.target in
  let n_in = Bdd.nvars man in
  let rng = Util.Rng.create seed in
  let ok = ref true in
  for _ = 1 to samples do
    let pattern = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let hold =
      List.exists
        (fun (po : Synthesis.per_output) ->
          Bdd.eval man cf.(po.Synthesis.e_combined) pattern)
        m.Synthesis.per_output
    in
    if not hold then begin
      let _, arrival = Spcf.Exact.pattern_arrivals ctx pattern in
      List.iter
        (fun (po : Synthesis.per_output) ->
          match
            Array.find_opt
              (fun (n, _) -> n = po.Synthesis.name)
              (Network.outputs (Mapped.network m.Synthesis.original))
          with
          | Some (_, s) -> if arrival.(s) > target_units then ok := false
          | None -> ok := false)
        m.Synthesis.per_output
    end
  done;
  !ok

let pp fmt r =
  Format.fprintf fmt
    "telescopic: clock %.3f -> %.3f, P(hold)=%.4f (exact %.4f), E[latency]=%.3f cycles, speedup %.2fx"
    r.slow_clock r.fast_clock r.hold_probability r.hold_exact_probability
    r.expected_latency_cycles r.speedup_vs_fixed
