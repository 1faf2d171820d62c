(* Standard pass pipelines, and the pre-flight gate used by the CLI
   entry points. *)

(* The four source passes; the preflight keeps only their errors. *)
let source_passes src =
  List.concat_map
    (fun pass -> pass src)
    Passes.
      [ source_multi_driver; source_undriven; source_cycles; source_structure ]

let source src = Obs.with_span "lint.source" @@ fun () -> source_passes src

let network net =
  Obs.with_span "lint.network" @@ fun () ->
  Passes.net_no_outputs net @ Passes.net_unused_inputs net
  @ Passes.net_dead_cones net @ Passes.net_const_gates net

let mapped ?model mc =
  Obs.with_span "lint.mapped" @@ fun () ->
  network (Mapped.network mc)
  @ Passes.mapped_unmapped_gates mc
  @ Passes.sta_consistency ?model mc

let masking ?margin m =
  Obs.with_span "lint.masking" @@ fun () ->
  Contract.check ?margin m
  @ Passes.mapped_unmapped_gates m.Masking.Synthesis.combined
  @ Passes.sta_consistency
      ~model:m.Masking.Synthesis.options.Masking.Synthesis.delay_model
      m.Masking.Synthesis.combined

let preflight_source src =
  Obs.with_span "lint.preflight" @@ fun () -> Diag.errors (source_passes src)

let preflight net =
  Obs.with_span "lint.preflight" @@ fun () -> Diag.errors (Passes.net_no_outputs net)

exception Gate_failed of string

(* The preflight gate raises rather than exits: the serve daemon turns
   a bad circuit into a per-request diagnostic, and the CLI boundary
   renders it as a one-line error. *)
let gate_check ~what diags =
  match Diag.errors diags with
  | [] -> ()
  | errs ->
    raise
      (Gate_failed
         (Printf.sprintf "%s: %s — run `emask lint` for details" what
            (Diag.summary errs)))
