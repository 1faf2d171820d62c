(* End-to-end verification of a synthesized error-masking circuit:
   functional safety (the masked circuit is combinationally equivalent
   to the original — the mux can never corrupt an output), coverage
   (every SPCF pattern raises the indicator), prediction soundness
   (a raised indicator implies a correct prediction), the timing-slack
   requirement on the masking circuit, and the area/power overheads the
   paper reports in Table 2. The first three are the masking contract,
   decided here only: lint's Contract renders these findings. *)

type finding =
  | Absent of string
  | Intrusive of string
  | Uncovered of string
  | Unsound of string

type report = {
  findings : finding list; (* [] iff the contract holds *)
  coverage_pct : float;
  critical_outputs : int;
  critical_minterms : Extfloat.t;
  delta_original : float;
  delta_masking : float;
  slack_pct : float;
  mux_delay_impact : float; (* combined delta - original delta *)
  area_original : float;
  area_total : float;
  area_overhead_pct : float;
  power_original : float;
  power_total : float;
  power_overhead_pct : float;
}

let c_outputs_checked = Obs.counter "verify.outputs_checked"
let c_power_rounds = Obs.counter "verify.power_rounds"

(* The masking contract in one pass: the findings in check order
   (equivalence over the combined outputs, then coverage and
   prediction per critical output) and the covered / total Σ minterm
   counts. *)
let contract (m : Synthesis.t) =
  let ctx = m.Synthesis.ctx in
  let man = ctx.Spcf.Ctx.man in
  (* Elaborate the combined circuit in the SPCF manager: input names and
     order match the original network's by construction. The original
     circuit's functions are the context's own. *)
  let cnet = Mapped.network m.Synthesis.combined in
  let cf = Obs.with_span "elaborate" (fun () -> Network.elaborate man cnet) in
  let of_ = ctx.Spcf.Ctx.funcs in
  let orig_outs = Network.outputs (Mapped.network m.Synthesis.original) in
  (* Equivalence over every original output. *)
  let equivalence =
    Obs.with_span "equivalence" @@ fun () ->
    Array.to_list (Network.outputs cnet)
    |> List.filter_map (fun (name, s) ->
           if Synthesis.is_err_output name then None
           else
             match Array.find_opt (fun (n, _) -> n = name) orig_outs with
             | None -> Some (Absent name)
             | Some (_, os) -> if cf.(s) = of_.(os) then None else Some (Intrusive name))
  in
  (* Coverage and prediction checks per critical output. *)
  let covered = ref Extfloat.zero and total = ref Extfloat.zero in
  Obs.enter "coverage";
  let indicators =
    List.concat_map
      (fun (po : Synthesis.per_output) ->
        Obs.incr c_outputs_checked;
        let name = po.Synthesis.name in
        let e = cf.(po.Synthesis.e_combined) in
        let y = cf.(po.Synthesis.y_combined) in
        let yt = cf.(po.Synthesis.ytilde_combined) in
        let sigma = po.Synthesis.sigma in
        let uncovered = Bdd.bimply man sigma e <> Bdd.btrue in
        let unsound = Bdd.bimply man e (Bdd.bxnor man y yt) <> Bdd.btrue in
        covered := Extfloat.add !covered (Bdd.satcount man (Bdd.band man sigma e));
        total := Extfloat.add !total (Bdd.satcount man sigma);
        (if uncovered then [ Uncovered name ] else [])
        @ if unsound then [ Unsound name ] else [])
      m.Synthesis.per_output
  in
  Obs.leave ();
  (equivalence @ indicators, !covered, !total)

let findings m =
  Obs.with_span "verify" @@ fun () ->
  let fs, _, _ = contract m in
  fs

let check ?(power_rounds = 128) (m : Synthesis.t) =
  Obs.with_span "verify" @@ fun () ->
  let findings, covered, total = contract m in
  let coverage_pct =
    if Extfloat.is_zero total then 100.
    else 100. *. Extfloat.to_float (Extfloat.div covered total)
  in
  (* Timing. *)
  Obs.enter "timing";
  let model = m.Synthesis.options.Synthesis.delay_model in
  let delta_original = m.Synthesis.delta in
  let sta_mask = Sta.analyze ~model m.Synthesis.masking in
  let delta_masking = Sta.delta sta_mask in
  let slack_pct = 100. *. (delta_original -. delta_masking) /. delta_original in
  let sta_combined = Sta.analyze ~model m.Synthesis.combined in
  let mux_delay_impact = Sta.delta sta_combined -. delta_original in
  Obs.leave ();
  (* Area and power. *)
  let area_original = Mapped.area m.Synthesis.original in
  let area_total = Mapped.area m.Synthesis.combined in
  let area_overhead_pct = 100. *. (area_total -. area_original) /. area_original in
  Obs.enter "power";
  Obs.add c_power_rounds (2 * power_rounds);
  let power_original = Power.total ~rounds:power_rounds m.Synthesis.original in
  let power_total = Power.total ~rounds:power_rounds m.Synthesis.combined in
  Obs.leave ();
  let power_overhead_pct = 100. *. (power_total -. power_original) /. power_original in
  {
    findings;
    coverage_pct;
    critical_outputs = List.length m.Synthesis.per_output;
    critical_minterms = Spcf.Ctx.count m.Synthesis.ctx m.Synthesis.spcf;
    delta_original;
    delta_masking;
    slack_pct;
    mux_delay_impact;
    area_original;
    area_total;
    area_overhead_pct;
    power_original;
    power_total;
    power_overhead_pct;
  }

let pp fmt r =
  let clear p = not (List.exists p r.findings) in
  Format.fprintf fmt
    "equiv=%b coverage=%b(%.1f%%) prediction=%b critPO=%d minterms=%s@ \
     delta %.3f -> masking %.3f (slack %.1f%%) mux impact %.3f@ area +%.1f%% power +%.1f%%"
    (clear (function Absent _ | Intrusive _ -> true | _ -> false))
    (clear (function Uncovered _ -> true | _ -> false))
    r.coverage_pct
    (clear (function Unsound _ -> true | _ -> false))
    r.critical_outputs
    (Extfloat.to_string r.critical_minterms)
    r.delta_original r.delta_masking r.slack_pct r.mux_delay_impact
    r.area_overhead_pct r.power_overhead_pct
