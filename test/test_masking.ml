(* Tests for the error-masking synthesis (the paper's core contribution):
   functional safety, SPCF coverage, prediction soundness, the slack
   requirement, option/ablation variants, and the cube-selection core. *)

let check = Alcotest.(check bool)

let full_check ?(options = Masking.Synthesis.default_options) name net =
  let m = Masking.Synthesis.synthesize ~options net in
  let r = Masking.Verify.check m in
  check (name ^ ": contract holds") true (r.Masking.Verify.findings = []);
  check (name ^ ": coverage 100%") true (r.Masking.Verify.coverage_pct >= 100. -. 1e-6);
  (m, r)

let test_benchmarks () =
  List.iter
    (fun name ->
      let _, r = full_check name (Suite.load name) in
      check (name ^ ": positive slack") true (r.Masking.Verify.slack_pct > 0.))
    [ "i1"; "cmb"; "x2"; "cu"; "frg1"; "C432"; "C880"; "sparc_ifu_invctl" ]

let test_slack_requirement () =
  (* The paper's design point: at least 20% slack over the original. *)
  List.iter
    (fun name ->
      let _, r = full_check name (Suite.load name) in
      check (name ^ ": >=20% slack") true (r.Masking.Verify.slack_pct >= 20.))
    [ "i1"; "C432"; "C2670"; "sparc_ifu_dcl" ]

let test_comparator_paper () =
  let options =
    { Masking.Synthesis.default_options with delay_model = Sta.Paper_units }
  in
  let net = Comparator.network () in
  let m, r = full_check ~options "comparator" net in
  let ctx = m.Masking.Synthesis.ctx in
  let po = List.hd m.Masking.Synthesis.per_output in
  check "sigma matches paper" true
    (po.Masking.Synthesis.sigma = Bdd.of_cover ctx.Spcf.Ctx.man Comparator.paper_spcf);
  check "slack >= 20%" true (r.Masking.Verify.slack_pct >= 20.)

let test_structural_indicator () =
  let options =
    { Masking.Synthesis.default_options with indicator = Masking.Synthesis.Structural }
  in
  List.iter
    (fun name -> ignore (full_check ~options ("structural:" ^ name) (Suite.load name)))
    [ "cmb"; "x2"; "i1"; "C432" ]

let test_cube_orders () =
  (* The ablation orders must all remain sound (area may differ). *)
  List.iter
    (fun order ->
      let options = { Masking.Synthesis.default_options with cube_order = order } in
      ignore (full_check ~options "order" (Suite.load "x2")))
    [ Masking.Synthesis.Ascending; Masking.Synthesis.Descending; Masking.Synthesis.Unsorted ]

let test_node_based_masking () =
  (* Masking driven by the over-approximate SPCF is also sound (it just
     protects more patterns). *)
  let options =
    { Masking.Synthesis.default_options with algorithm = Masking.Synthesis.Node_based }
  in
  ignore (full_check ~options "node-based" (Suite.load "C432"))

let test_theta_sweep () =
  List.iter
    (fun theta ->
      let options = { Masking.Synthesis.default_options with theta } in
      let m, _ = full_check ~options (Printf.sprintf "theta %.2f" theta) (Suite.load "cmb") in
      check "target set" true
        (abs_float (m.Masking.Synthesis.target -. (theta *. m.Masking.Synthesis.delta))
        < 1e-9))
    [ 0.8; 0.9; 0.95 ]

let test_no_critical_outputs () =
  (* With theta = 1.0 nothing is critical; the combined circuit is just
     the original. *)
  let options = { Masking.Synthesis.default_options with theta = 1.0 } in
  let net = Suite.load "cmb" in
  let m = Masking.Synthesis.synthesize ~options net in
  check "no critical outputs" true (m.Masking.Synthesis.per_output = []);
  let r = Masking.Verify.check m in
  check "still equivalent" true (r.Masking.Verify.findings = [])

let test_log_errors_outputs () =
  let options = { Masking.Synthesis.default_options with log_errors = true } in
  let net = Suite.load "cmb" in
  let m = Masking.Synthesis.synthesize ~options net in
  List.iter
    (fun (po : Masking.Synthesis.per_output) ->
      check "err output present" true (po.Masking.Synthesis.err_combined <> None))
    m.Masking.Synthesis.per_output

let test_masked_functionality_random () =
  (* Monte-Carlo functional check of the combined circuit against the
     source network, independent of the BDD-based verifier. *)
  let net = Suite.load "C880" in
  let m = Masking.Synthesis.synthesize net in
  let cnet = Mapped.network m.Masking.Synthesis.combined in
  let n_in = Array.length (Network.inputs net) in
  let rng = Util.Rng.create 17 in
  for _ = 1 to 500 do
    let pattern = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let expected = Network.eval_outputs net pattern in
    let cv = Network.eval cnet pattern in
    Array.iteri
      (fun i (name, _) ->
        match Array.find_opt (fun (n, _) -> n = name) (Network.outputs cnet) with
        | Some (_, s) -> check "masked output value" true (cv.(s) = expected.(i))
        | None -> Alcotest.fail "missing output")
      (Network.outputs net)
  done

(* ---------- select_cubes core ---------- *)

let test_select_cubes_properties () =
  (* On the comparator's output node: selected covers must cover the
     Σ-induced care minterms, using only original cubes. *)
  let man = Bdd.create ~nvars:4 () in
  let sigma = Bdd.of_cover man Comparator.paper_spcf in
  let fanin_bdds = Array.init 4 (fun v -> Bdd.var man v) in
  let vars = [| "a0"; "a1"; "b0"; "b1" |] in
  (* on-set of y (a1a0 >= b1b0), as a flat SOP *)
  let on = Logic2.Sop.parse ~vars "a1*!b1 + a0*a1 + a0*!b1 + !b0*a1 + !b0*!b1" in
  let selected =
    Masking.Synthesis.select_cubes ~man ~order:Masking.Synthesis.Ascending ~sigma
      ~fanin_bdds on
  in
  (* Selected is a subset of the original cubes. *)
  List.iter
    (fun c ->
      check "cube from original" true
        (List.exists (Logic2.Cube.equal c) (Logic2.Cover.cubes on)))
    (Logic2.Cover.cubes selected);
  (* Selected covers every Σ pattern the original covers. *)
  let covers cover =
    Bdd.band man sigma (Bdd.cover_with man cover fanin_bdds)
  in
  check "covers Σ-care" true (covers selected = covers on);
  (* Every selected cube is essential w.r.t. the scan order: removing any
     one loses some Σ pattern that only later cubes would re-cover...
     weaker check: no selected cube is Σ-empty. *)
  List.iter
    (fun c ->
      check "selected cube intersects Σ" true
        (Bdd.band man sigma (Bdd.cube_with man c fanin_bdds) <> Bdd.bfalse))
    (Logic2.Cover.cubes selected)

let test_select_cubes_empty_sigma () =
  let man = Bdd.create ~nvars:2 () in
  let fanin_bdds = [| Bdd.var man 0; Bdd.var man 1 |] in
  let on = Logic2.Sop.parse ~vars:[| "a"; "b" |] "a*b + !a*!b" in
  let selected =
    Masking.Synthesis.select_cubes ~man ~order:Masking.Synthesis.Ascending
      ~sigma:Bdd.bfalse ~fanin_bdds on
  in
  check "nothing selected" true (Logic2.Cover.is_zero selected)

let () =
  Alcotest.run "masking"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "benchmarks" `Slow test_benchmarks;
          Alcotest.test_case "20% slack" `Slow test_slack_requirement;
          Alcotest.test_case "comparator (paper)" `Quick test_comparator_paper;
          Alcotest.test_case "random functional check" `Slow test_masked_functionality_random;
        ] );
      ( "options",
        [
          Alcotest.test_case "structural indicator" `Slow test_structural_indicator;
          Alcotest.test_case "cube orders" `Quick test_cube_orders;
          Alcotest.test_case "node-based SPCF" `Quick test_node_based_masking;
          Alcotest.test_case "theta sweep" `Quick test_theta_sweep;
          Alcotest.test_case "no critical outputs" `Quick test_no_critical_outputs;
          Alcotest.test_case "error logging outputs" `Quick test_log_errors_outputs;
        ] );
      ( "select-cubes",
        [
          Alcotest.test_case "properties" `Quick test_select_cubes_properties;
          Alcotest.test_case "empty sigma" `Quick test_select_cubes_empty_sigma;
        ] );
    ]
