(* Masking-contract verification (paper Sec. 4), as lint passes over a
   synthesized Masking.Synthesis.t: structural mux-insertion checks,
   BDD-based non-intrusiveness and indicator soundness, and the >= 20%
   timing-slack requirement on the masking circuit. *)

open Masking

let slack_margin = 0.2

let run_pass name f x =
  Obs.with_span ("lint.contract." ^ name) @@ fun () -> f x

(* The output mux of every protected output must be a MUX21 with pins
   (a = original y, b = prediction ~y, c = indicator e), and the
   combined circuit's output of that name must be the mux itself. *)
let check_mux_insertion (m : Synthesis.t) =
  run_pass "mux"
    (fun (m : Synthesis.t) ->
  let combined = m.Synthesis.combined in
  let cnet = Mapped.network combined in
  let outs = Network.outputs cnet in
  let out_signal name =
    Array.find_opt (fun (n, _) -> n = name) outs |> Option.map snd
  in
  List.concat_map
    (fun (po : Synthesis.per_output) ->
      let name = po.Synthesis.name in
      let bad fmt =
        Printf.ksprintf
          (fun msg -> [ Diag.diag Diag.Mask_mux ~signal:name msg ])
          fmt
      in
      match Mapped.cell_of combined po.Synthesis.masked_combined with
      | None -> bad "masked output %S is not driven by a gate" name
      | Some cell when cell.Cell.cname <> Cell.mux21.Cell.cname ->
        bad "masked output %S is driven by %s, expected MUX21" name cell.Cell.cname
      | Some _ ->
        let fanins = Network.fanins cnet po.Synthesis.masked_combined in
        if
          fanins
          <> [|
               po.Synthesis.y_combined;
               po.Synthesis.ytilde_combined;
               po.Synthesis.e_combined;
             |]
        then bad "mux pins of %S are not (y, ~y, e) in MUX21 pin order" name
        else if out_signal name <> Some po.Synthesis.masked_combined then
          bad "combined output %S does not expose the mux" name
        else [])
    m.Synthesis.per_output)
    m

(* BDDs of the combined and original circuits in the SPCF manager (the
   input orders agree by construction); the original circuit's are the
   context's own functions. *)
let elaborate_pair (m : Synthesis.t) =
  let ctx = m.Synthesis.ctx in
  let man = ctx.Spcf.Ctx.man in
  let cf = Network.elaborate man (Mapped.network m.Synthesis.combined) in
  (man, cf, ctx.Spcf.Ctx.funcs)

let check_non_intrusive (m : Synthesis.t) =
  run_pass "non-intrusive"
    (fun (m : Synthesis.t) ->
  let _, cf, of_ = elaborate_pair m in
  let onet = Mapped.network m.Synthesis.original in
  let orig_outs = Network.outputs onet in
  let orig name =
    Array.find_opt (fun (n, _) -> n = name) orig_outs |> Option.map snd
  in
  Array.to_list (Network.outputs (Mapped.network m.Synthesis.combined))
  |> List.filter_map (fun (name, s) ->
         if Synthesis.is_err_output name then None
         else
           match orig name with
           | None ->
             Some
               (Diag.diag Diag.Mask_intrusive ~signal:name
                  (Printf.sprintf
                     "combined circuit exposes output %S absent from the original"
                     name))
           | Some os ->
             if cf.(s) = of_.(os) then None
             else
               Some
                 (Diag.diag Diag.Mask_intrusive ~signal:name
                    (Printf.sprintf
                       "masked output %S is not combinationally equivalent to the \
                        original"
                       name))))
    m

let check_indicator_soundness (m : Synthesis.t) =
  run_pass "indicator"
    (fun (m : Synthesis.t) ->
  let man, cf, _ = elaborate_pair m in
  List.concat_map
    (fun (po : Synthesis.per_output) ->
      let name = po.Synthesis.name in
      let e = cf.(po.Synthesis.e_combined) in
      let y = cf.(po.Synthesis.y_combined) in
      let yt = cf.(po.Synthesis.ytilde_combined) in
      let sigma = po.Synthesis.sigma in
      let coverage =
        if Bdd.bimply man sigma e <> Bdd.btrue then
          [
            Diag.diag Diag.Mask_coverage ~signal:name
              (Printf.sprintf
                 "indicator of %S does not cover its SPCF (some speed-path pattern \
                  is unmasked)"
                 name);
          ]
        else []
      in
      let soundness =
        if Bdd.bimply man e (Bdd.bxnor man y yt) <> Bdd.btrue then
          [
            Diag.diag Diag.Mask_coverage ~signal:name
              (Printf.sprintf
                 "indicator of %S can select an incorrect prediction (e raised while \
                  ~y differs from y)"
                 name);
          ]
        else []
      in
      coverage @ soundness)
    m.Synthesis.per_output)
    m

let check_slack ?(margin = slack_margin) (m : Synthesis.t) =
  run_pass "slack"
    (fun (m : Synthesis.t) ->
  if m.Synthesis.per_output = [] then []
  else begin
    let model = m.Synthesis.options.Synthesis.delay_model in
    let delta = m.Synthesis.delta in
    let delta_masking =
      Sta.delta (Sta.analyze ~model m.Synthesis.masking)
    in
    let bound = (1. -. margin) *. delta in
    if delta_masking > bound +. Sta.eps then
      [
        Diag.diag Diag.Mask_slack
          (Printf.sprintf
             "masking circuit delay %.3f exceeds %.3f (= %.0f%% of the original \
              critical path %.3f); slack is %.1f%%, contract requires >= %.0f%%"
             delta_masking bound
             ((1. -. margin) *. 100.)
             delta
             (100. *. (delta -. delta_masking) /. delta)
             (margin *. 100.));
      ]
    else []
  end)
    m

let check ?margin m =
  Obs.with_span "lint.contract" @@ fun () ->
  check_mux_insertion m @ check_non_intrusive m @ check_indicator_soundness m
  @ check_slack ?margin m
