(* Wearout prediction (paper Sec. 2.1): as speed-path gates age, timing
   errors at the critical outputs rise; with the masking circuit in
   place they are masked, but the events e·(y ⊕ ỹ) can be logged and
   analyzed offline — a rising masked-error rate predicts the onset of
   wearout long before it becomes user-visible.

   The sweep degrades the delays of the original circuit's near-critical
   gates by a growing factor and measures, with the event-driven timing
   simulator over random input transitions:
   - the raw error rate at the unprotected outputs,
   - the masked error rate at the mux outputs (should stay ~0 while the
     masking circuit retains slack),
   - the logged-event rate e·(y_captured ≠ ỹ) — the wearout signal. *)

type sample = {
  factor : float;
  raw_error_rate : float;
  masked_error_rate : float;
  logged_rate : float;
  indicator_rate : float; (* how often any e_i is raised *)
}

let aging_sweep ?(trials = 400) ?(seed = 42)
    ?(factors = [ 1.0; 1.05; 1.1; 1.15; 1.2; 1.25; 1.3 ]) (m : Synthesis.t) =
  let model = m.Synthesis.options.Synthesis.delay_model in
  let combined = m.Synthesis.combined in
  let cnet = Mapped.network combined in
  let base_delays = Sta.gate_delays model combined in
  let sta = Sta.analyze ~model combined in
  let clock = Sta.delta sta in
  (* Gates that age: near-critical gates of the original circuit's copy
     inside the combined circuit (within 10% of the clock on some path);
     the masking circuit is assumed fresh/guard-banded, which is the
     paper's design point (it has >= 20% slack anyway). *)
  let original_names = Hashtbl.create 256 in
  Array.iter
    (fun s ->
      match Network.node_of (Mapped.network m.Synthesis.original) s with
      | None -> ()
      | Some _ ->
        Hashtbl.replace original_names
          (Network.name_of (Mapped.network m.Synthesis.original) s)
          ())
    (Network.topo_order (Mapped.network m.Synthesis.original));
  let is_original s = Hashtbl.mem original_names (Network.name_of cnet s) in
  let critical = Sta.critical_signals sta ~target:(0.9 *. clock) in
  let ages s = is_original s && critical.(s) in
  let inputs = Network.inputs cnet in
  let n_in = Array.length inputs in
  let rng = Util.Rng.create seed in
  (* The indicator e is a zero-delay function of the destination
     pattern: the masking circuit is fresh/guard-banded (>= 20% slack),
     so e has settled by the clock edge and cap e = e(to_). That makes
     the indicator rate bit-parallel computable — the trials' to_
     patterns are packed 62 per word and each block costs one Bitsim
     pass over all outputs, instead of one flag probe per trial. *)
  let bsim = Bitsim.of_mapped combined in
  let sample factor =
    let delays = Tsim.degraded_delays base_delays ~factor ~on:ages in
    let raw = ref 0 and masked = ref 0 and logged = ref 0 and raised = ref 0 in
    let to_words = Array.make n_in 0 in
    let fill = ref 0 in
    let flush () =
      if !fill > 0 then begin
        let words = Bitsim.eval_word bsim to_words in
        let e_any =
          List.fold_left
            (fun acc (po : Synthesis.per_output) ->
              acc lor words.(po.Synthesis.e_combined))
            0 m.Synthesis.per_output
        in
        raised := !raised + Bitsim.popcount (e_any land ((1 lsl !fill) - 1));
        Array.fill to_words 0 n_in 0;
        fill := 0
      end
    in
    for _ = 1 to trials do
      let from_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
      let to_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
      Array.iteri
        (fun v b -> if b then to_words.(v) <- to_words.(v) lor (1 lsl !fill))
        to_;
      incr fill;
      if !fill = 62 then flush ();
      let r = Tsim.simulate combined ~delays ~from_ ~to_ ~clock in
      let errors = ref false and merrors = ref false and log_ = ref false in
      List.iter
        (fun (po : Synthesis.per_output) ->
          let cap s = r.Tsim.at_clock.(s) and fin s = r.Tsim.final.(s) in
          if cap po.Synthesis.y_combined <> fin po.Synthesis.y_combined then
            errors := true;
          if cap po.Synthesis.masked_combined <> fin po.Synthesis.masked_combined
          then merrors := true;
          if
            cap po.Synthesis.e_combined
            && cap po.Synthesis.y_combined <> cap po.Synthesis.ytilde_combined
          then log_ := true)
        m.Synthesis.per_output;
      if !errors then incr raw;
      if !merrors then incr masked;
      if !log_ then incr logged
    done;
    flush ();
    let rate c = float_of_int c /. float_of_int trials in
    {
      factor;
      raw_error_rate = rate !raw;
      masked_error_rate = rate !masked;
      logged_rate = rate !logged;
      indicator_rate = rate !raised;
    }
  in
  List.map sample factors

let pp_sample fmt s =
  Format.fprintf fmt
    "aging x%.2f: raw errors %.3f, masked-output errors %.3f, logged %.3f, e raised %.3f"
    s.factor s.raw_error_rate s.masked_error_rate s.logged_rate s.indicator_rate
