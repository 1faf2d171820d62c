(* Masking-contract verification (paper Sec. 4), as lint passes over a
   synthesized Masking.Synthesis.t: structural mux-insertion checks,
   Masking.Verify's non-intrusiveness and indicator-soundness findings
   rendered as diagnostics, and the >= 20% timing-slack requirement on
   the masking circuit. *)

open Masking

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

(* One MASK001 / MASK004 diagnostic per Verify finding. *)
let diag_of_finding f =
  let d code name fmt =
    Printf.ksprintf (fun msg -> Diag.diag code ~signal:name msg) fmt
  in
  match f with
  | Verify.Absent name ->
    d Diag.Mask_intrusive name
      "combined circuit exposes output %S absent from the original" name
  | Verify.Intrusive name ->
    d Diag.Mask_intrusive name
      "masked output %S is not combinationally equivalent to the original" name
  | Verify.Uncovered name ->
    d Diag.Mask_coverage name
      "indicator of %S does not cover its SPCF (some speed-path pattern is unmasked)"
      name
  | Verify.Unsound name ->
    d Diag.Mask_coverage name
      "indicator of %S can select an incorrect prediction (e raised while ~y \
       differs from y)"
      name

let of_findings m findings =
  check_mux_insertion m @ List.map diag_of_finding findings

let check_slack ?(margin = Synthesis.slack_margin) (m : Synthesis.t) =
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
  of_findings m (Verify.findings m) @ check_slack ?margin m
