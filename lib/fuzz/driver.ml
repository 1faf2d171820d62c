(* The fuzzing loop. Specimens alternate between fresh generation and
   mutation of the previous specimen (mutation walks reach shapes the
   grammar's one-shot distribution rarely produces). Each sample's
   randomness comes from Rng.child root index, so (seed, index) replays
   a failure exactly. *)

type config = {
  seed : int;
  count : int;
  budget : Budget.spec;
  oracles : Oracle.t list;
  shrink : bool;
  out_dir : string option;
  params : Gen.params;
}

let default_config =
  {
    seed = 0;
    count = 100;
    budget = Budget.no_limits;
    oracles = Oracle.all;
    shrink = true;
    out_dir = None;
    params = Gen.default_params;
  }

type failure = {
  oracle : string;
  index : int;
  message : string;
  gates : int;
  spec : Gen.spec;
  repro : string option;
}

type summary = {
  samples : int;
  checks : int;
  skips : int;
  failures : failure list;
  elapsed : float;
}

let sanitize msg =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) msg

(* The environment knobs that change how a failure reproduces: a repro
   found under --jobs 4 with a tight budget may not fire sequentially
   and unbounded, so the header pins what the run actually saw. *)
let env_header () =
  [ "EMASK_JOBS"; "EMASK_BUDGET_TIMEOUT"; "EMASK_BUDGET_MAX_NODES";
    "EMASK_BUDGET_MAX_OPS"; "EMASK_OBS" ]
  |> List.map (fun v ->
         Printf.sprintf "%s=%s" v
           (match Sys.getenv_opt v with
           | None | Some "" -> "unset"
           | Some s -> sanitize s))
  |> String.concat " "

let repro_blif ~oracle ~seed ~index ~message spec =
  Printf.sprintf
    "# emask fuzz repro\n# oracle: %s\n# seed: %d  index: %d\n# env: %s\n# %s\n%s"
    oracle seed index (env_header ()) (sanitize message)
    (Blif.to_string ~model:(Printf.sprintf "fuzz_%s_%d_%d" oracle seed index)
       (Gen.network spec))

let write_repro ~dir ~oracle ~seed ~index ~message spec =
  let path = Filename.concat dir (Printf.sprintf "fuzz-%s-seed%d-%d.blif" oracle seed index) in
  let oc = open_out path in
  output_string oc (repro_blif ~oracle ~seed ~index ~message spec);
  close_out oc;
  path

(* Re-running an oracle during shrinking needs fresh-but-deterministic
   pattern randomness: the stream is a fixed child of the sample's. A
   Skip (including budget exhaustion) counts as "does not fail", so
   shrinking under pressure stays sound — it just stops early. *)
let still_fails oracle ~sample_rng ~budget spec =
  let rng = Rng.base (Rng.child sample_rng 0x51412) in
  match Oracle.run oracle ~rng ~budget:(Budget.for_worker budget) (Gen.network spec) with
  | Oracle.Fail _ -> true
  | _ -> false

(* eco-equal failures also carry an edit sequence. It is re-derived
   from (seed, index) — the oracle's only rng consumption — on the
   post-shrink spec, greedily minimized, and written next to the .blif
   as a replayable .eco file ([Eco.parse_edits] format; the companion
   netlist is named in the header). *)
let eco_edit_fails ~budget net edits =
  match
    let d = Eco.design_of_mapped (Mapper.map net) in
    let _ = Eco.apply_all d edits in
    Oracle.eco_replay ~budget:(Budget.for_worker budget) net edits
  with
  | Oracle.Fail _ -> true
  | _ | (exception _) -> false

let write_eco_repro ~log ~dir ~seed ~index ~message ~sample_rng ~budget spec =
  let net = Gen.network spec in
  let rng = Rng.base (Rng.child sample_rng 0x51412) in
  match Oracle.eco_edits ~rng net with
  | None -> ()
  | Some edits ->
    let edits, evals =
      if eco_edit_fails ~budget net edits then
        Shrink.shrink_edits ~fails:(eco_edit_fails ~budget net) edits
      else (edits, 0)
    in
    let d = Eco.design_of_mapped (Mapper.map net) in
    let path =
      Filename.concat dir (Printf.sprintf "fuzz-eco-equal-seed%d-%d.eco" seed index)
    in
    let oc = open_out path in
    Printf.fprintf oc
      "# emask fuzz eco repro\n# oracle: eco-equal\n# seed: %d  index: %d\n\
       # env: %s\n# %s\n# apply to: fuzz-eco-equal-seed%d-%d.blif\n%s"
      seed index (env_header ()) (sanitize message) seed index
      (Eco.edits_to_string d edits);
    close_out oc;
    log
      (Printf.sprintf "  edit sequence (%d edits, %d replays) written to %s"
         (List.length edits) evals path)

let run ?(log = print_endline) config =
  let t0 = Obs.now () in
  let root = Rng.create ~seed:config.seed in
  let checks = ref 0 and skips = ref 0 and samples = ref 0 in
  let failures = ref [] in
  let prev = ref None in
  (* One budget instance governs the whole campaign: the loop polls it
     between work items, and each oracle execution runs under a worker
     view (shared deadline and quotas, fresh operation count). *)
  let budget = Budget.instantiate config.budget in
  let budget_left () = Budget.exhausted budget = None in
  let i = ref 0 in
  while !i < config.count && budget_left () do
    let index = !i in
    let sample_rng = Rng.child root index in
    let spec =
      Obs.with_span "fuzz.gen" (fun () ->
          match !prev with
          | Some p when index > 0 && Rng.float sample_rng < 0.4 ->
            Gen.mutate sample_rng p
          | _ -> Gen.generate ~params:config.params sample_rng)
    in
    prev := Some spec;
    incr samples;
    let net = Gen.network spec in
    List.iter
      (fun oracle ->
        if budget_left () then begin
          incr checks;
          let rng = Rng.base (Rng.child sample_rng 0x51412) in
          match
            Obs.with_span ("fuzz.oracle." ^ oracle.Oracle.name) (fun () ->
                Oracle.run oracle ~rng ~budget:(Budget.for_worker budget) net)
          with
          | Oracle.Pass -> ()
          | Oracle.Skip _ -> incr skips
          | Oracle.Fail message ->
            log
              (Printf.sprintf "FAIL %s: seed=%d index=%d gates=%d: %s"
                 oracle.Oracle.name config.seed index (Gen.num_gates spec)
                 (sanitize message));
            let spec, evals =
              if config.shrink then
                Obs.with_span "fuzz.shrink" (fun () ->
                    Shrink.shrink ~fails:(still_fails oracle ~sample_rng ~budget) spec)
              else (spec, 0)
            in
            if config.shrink then
              log
                (Printf.sprintf "  shrunk to %d gates / %d inputs (%d oracle runs)"
                   (Gen.num_gates spec) spec.Gen.n_pi evals);
            let repro =
              Option.map
                (fun dir ->
                  let path =
                    write_repro ~dir ~oracle:oracle.Oracle.name ~seed:config.seed
                      ~index ~message spec
                  in
                  log (Printf.sprintf "  repro written to %s" path);
                  if oracle.Oracle.name = "eco-equal" then
                    write_eco_repro ~log ~dir ~seed:config.seed ~index ~message
                      ~sample_rng ~budget spec;
                  path)
                config.out_dir
            in
            failures :=
              {
                oracle = oracle.Oracle.name;
                index;
                message;
                gates = Gen.num_gates spec;
                spec;
                repro;
              }
              :: !failures
        end)
      config.oracles;
    incr i
  done;
  let elapsed = Obs.now () -. t0 in
  let failures = List.rev !failures in
  log
    (Printf.sprintf "fuzz: %d samples, %d oracle runs, %d skips, %d failures (%.1fs, seed %d)"
       !samples !checks !skips (List.length failures) elapsed config.seed);
  { samples = !samples; checks = !checks; skips = !skips; failures; elapsed }
