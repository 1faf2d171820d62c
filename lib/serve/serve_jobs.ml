(* Shared job runners: the bodies of the lint / spcf / paths / protect
   / eco subcommands, rendered into a buffer instead of stdout.

   Both entry points delegate here — `emask <job>` prints the buffer
   on stdout and exits with the returned code, `emask serve` ships it
   back in a response frame — so a served response is byte-identical
   to the one-shot CLI for the same inputs by construction, not by
   test discipline. Nothing in a runner touches process-global state:
   ledger facts go through the caller-supplied [note] sink (the CLI
   passes the global note store, the server a per-request collector),
   circuits come from the caller-supplied [lookup] (direct load for
   the CLI, the LRU for the server), and failures raise — the CLI
   maps them to stderr + exit 2, the server to an error response. *)

type circuit = { spec : string; source : string option }

type entry = {
  e_spec : string;
  e_source : string option;
  e_src : Blif.source option;  (** parsed raw source for inline circuits *)
  e_net : Network.t;
  e_mc : Mapped.t Lazy.t;
}

type lookup = circuit -> entry

(* A note sink for ledger facts; [None] when no ledger is configured,
   so runners skip the digest work exactly like the one-shot CLI. *)
type note = (string -> Obs_json.t -> unit) option

let put n k v = match n with Some f -> f k v | None -> ()

let lazy_map net = lazy (Obs.with_span "map" (fun () -> Mapper.map net))

(* The shared loader: parse / suite-load under the "load" span, with
   the cheap error-only preflight gate ([Gate_failed] on errors). *)
let load_entry (c : circuit) =
  Obs.with_span "load" (fun () ->
      match c.source with
      | Some text ->
        let src = Blif.parse_source ~file:c.spec text in
        Analysis.Lint.gate_check ~what:c.spec (Analysis.Lint.preflight_source src);
        let net = Blif.elaborate src in
        {
          e_spec = c.spec;
          e_source = c.source;
          e_src = Some src;
          e_net = net;
          e_mc = lazy_map net;
        }
      | None ->
        let net = Suite.load c.spec in
        Analysis.Lint.gate_check ~what:c.spec (Analysis.Lint.preflight net);
        {
          e_spec = c.spec;
          e_source = None;
          e_src = None;
          e_net = net;
          e_mc = lazy_map net;
        })

(* Ledger facts about the circuit under analysis. The hash is the
   digest of the canonical BLIF serialization, so "same circuit,
   different file name" groups together in [emask report]. *)
let note_circuit note spec net =
  put note "circuit" (Obs_json.String spec);
  if note <> None then
    put note "circuit_sha"
      (Obs_json.String (Digest.to_hex (Digest.string (Blif.to_string net))))

let note_run note ~theta ~jobs =
  put note "theta" (Obs_json.Float theta);
  put note "jobs" (Obs_json.Int jobs)

(* --- budget-degradation reporting --------------------------------------- *)

let pp_reasons attempts =
  String.concat ", "
    (List.map
       (fun (tier, reason) ->
         Printf.sprintf "%s: %s"
           (Spcf.Governed.tier_to_string tier)
           (Budget.reason_to_string reason))
       attempts)

let report_spcf_degradation buf (o : Spcf.Governed.outcome) =
  if o.Spcf.Governed.tier <> Spcf.Governed.Exact then
    Printf.bprintf buf "budget: degraded to %s SPCF (%s); degraded outputs: %s\n"
      (Spcf.Governed.tier_to_string o.Spcf.Governed.tier)
      (pp_reasons o.Spcf.Governed.attempts)
      (String.concat ", "
         (List.map (fun (n, _, _) -> n) o.Spcf.Governed.result.Spcf.Ctx.outputs))

let report_synthesis_degradation buf (m : Masking.Synthesis.t) =
  if m.Masking.Synthesis.tier <> Spcf.Governed.Exact then
    Printf.bprintf buf "budget: degraded to %s (%s); degraded outputs: %s\n"
      (Spcf.Governed.tier_to_string m.Masking.Synthesis.tier)
      (pp_reasons m.Masking.Synthesis.attempts)
      (String.concat ", "
         (List.map
            (fun p -> p.Masking.Synthesis.name)
            m.Masking.Synthesis.per_output))

(* --- lint ---------------------------------------------------------------- *)

type lint_req = {
  l_fail_on : Analysis.Diag.severity;
  l_json : bool;
  l_contract : bool;
  l_theta : float;
  l_jobs : int;
}

(* Lint a circuit. Inline/file sources are first analyzed in raw form
   (the only form in which cycles and undriven/multiply-driven signals
   are even representable); if the source passes the error-level
   checks it is elaborated and the semantic + timing passes run on the
   mapped realization. Suite circuits skip the source stage. *)
let run_lint ~note buf (c : circuit) (r : lint_req) =
  let source_diags, net =
    match c.source with
    | Some text -> (
      match Blif.parse_source ~file:c.spec text with
      | src ->
        let ds = Analysis.Lint.source src in
        if Analysis.Diag.errors ds = [] then (ds, Some (Blif.elaborate src))
        else (ds, None)
      | exception Blif.Parse_error msg ->
        ([ Analysis.Diag.diag Analysis.Diag.Parse_error msg ], None))
    | None -> ([], Some (load_entry c).e_net)
  in
  (match net with Some n -> note_circuit note c.spec n | None -> ());
  let semantic_diags =
    match net with
    | None -> []
    | Some net ->
      (* For source circuits the structural passes already ran on the
         raw form; only the cover-semantic pass is new. Suite circuits
         get the full network pipeline. *)
      let net_ds =
        if c.source <> None then Analysis.Passes.net_const_gates net
        else Analysis.Lint.network net
      in
      let mc = Obs.with_span "map" (fun () -> Mapper.map net) in
      let mapped_ds =
        Analysis.Passes.mapped_unmapped_gates mc @ Analysis.Passes.sta_consistency mc
      in
      let contract_ds =
        if r.l_contract && Analysis.Diag.errors net_ds = [] then begin
          let options =
            {
              Masking.Synthesis.default_options with
              theta = r.l_theta;
              jobs = r.l_jobs;
            }
          in
          let m = Masking.Synthesis.synthesize ~options net in
          Analysis.Lint.masking m
        end
        else []
      in
      net_ds @ mapped_ds @ contract_ds
  in
  let diags = source_diags @ semantic_diags in
  if r.l_json then
    Buffer.add_string buf
      (Obs_json.to_string (Analysis.Diag.report_json ~name:c.spec diags) ^ "\n")
  else begin
    (* Same rendering as [Analysis.Diag.print]. *)
    List.iter
      (fun d -> Buffer.add_string buf (Analysis.Diag.to_string d ^ "\n"))
      (Analysis.Diag.sort diags);
    Printf.bprintf buf "lint: %s\n" (Analysis.Diag.summary diags)
  end;
  Analysis.Diag.exit_code ~fail_on:r.l_fail_on diags

(* --- spcf ---------------------------------------------------------------- *)

type spcf_req = {
  s_theta : float;
  s_algorithm : Spcf.Governed.algorithm;
  s_jobs : int;
}

let run_spcf ~note buf (lookup : lookup) (c : circuit) (r : spcf_req)
    (bspec : Budget.spec) =
  let entry = lookup c in
  let net = entry.e_net in
  note_circuit note c.spec net;
  note_run note ~theta:r.s_theta ~jobs:r.s_jobs;
  let mc = Lazy.force entry.e_mc in
  let o =
    Spcf.Governed.compute ~jobs:r.s_jobs ~spec:bspec ~algorithm:r.s_algorithm
      ~theta:r.s_theta mc
  in
  let ctx = o.Spcf.Governed.ctx and res = o.Spcf.Governed.result in
  put note "algorithm" (Obs_json.String res.Spcf.Ctx.algorithm);
  put note "tier"
    (Obs_json.String (Spcf.Governed.tier_to_string o.Spcf.Governed.tier));
  put note "compute_s" (Obs_json.Float res.Spcf.Ctx.runtime);
  Printf.bprintf buf "circuit: %s\n" c.spec;
  Printf.bprintf buf "gates: %d  area: %.1f  delta: %.3f  target: %.3f\n"
    (Mapped.gate_count mc) (Mapped.area mc) (Spcf.Ctx.delta ctx)
    res.Spcf.Ctx.target;
  Printf.bprintf buf "algorithm: %s  runtime: %.3fs\n" res.Spcf.Ctx.algorithm
    res.Spcf.Ctx.runtime;
  Printf.bprintf buf "critical outputs: %d\n" (Spcf.Ctx.num_critical_outputs res);
  List.iter
    (fun (name, _, sigma) ->
      Printf.bprintf buf "  %-16s critical minterms: %s\n" name
        (Extfloat.to_string (Bdd.satcount ctx.Spcf.Ctx.man sigma)))
    res.Spcf.Ctx.outputs;
  Printf.bprintf buf "total critical minterms: %s\n"
    (Extfloat.to_string (Spcf.Ctx.count ctx res));
  report_spcf_degradation buf o;
  0

(* --- paths --------------------------------------------------------------- *)

type paths_req = {
  p_band : float;
  p_max_paths : int;
  p_jobs : int;
  p_json : bool;
  p_fail_on : Analysis.Diag.severity;
}

(* A witness pattern as "a=1 b=0 ..." over the primary-input names. *)
let pp_witness mnet w =
  String.concat " "
    (Array.to_list
       (Array.mapi
          (fun i s ->
            Printf.sprintf "%s=%d" (Network.name_of mnet s) (if w.(i) then 1 else 0))
          (Network.inputs mnet)))

let paths_json spec mnet (report : Sensitization.report) diags =
  let open Obs_json in
  let path_json (c : Sensitization.classified) =
    let p = c.Sensitization.path in
    let base =
      [
        ("output", String p.Paths.output);
        ( "signals",
          List
            (Array.to_list
               (Array.map (fun s -> String (Network.name_of mnet s)) p.Paths.signals))
        );
        ("length", Float p.Paths.length);
        ("verdict", String (Sensitization.verdict_name c.Sensitization.verdict));
      ]
    in
    match c.Sensitization.verdict with
    | Sensitization.True w ->
      Obj
        (base
        @ [
            ( "witness",
              Obj
                (Array.to_list
                   (Array.mapi
                      (fun i s -> (Network.name_of mnet s, Bool w.(i)))
                      (Network.inputs mnet))) );
          ])
    | Sensitization.False -> Obj base
    | Sensitization.Unknown r ->
      Obj (base @ [ ("reason", String (Budget.reason_to_string r)) ])
  in
  let summary_json (s : Sensitization.summary) =
    Obj
      [
        ("output", String s.Sensitization.output);
        ("paths", Int s.Sensitization.num_paths);
        ("true", Int s.Sensitization.num_true);
        ("false", Int s.Sensitization.num_false);
        ("unknown", Int s.Sensitization.num_unknown);
        ("topological", Float s.Sensitization.topological);
        ("functional", Float s.Sensitization.functional);
      ]
  in
  let nt, nf, nu = Sensitization.counts report in
  Obj
    [
      ("circuit", String spec);
      ("delta", Float report.Sensitization.delta);
      ("band", Float report.Sensitization.band);
      ("target", Float report.Sensitization.target);
      ("truncated", Bool report.Sensitization.truncated);
      ("functional_delta", Float report.Sensitization.functional_delta);
      ("paths", List (List.map path_json report.Sensitization.paths));
      ("outputs", List (List.map summary_json report.Sensitization.summaries));
      ("verdicts", Obj [ ("true", Int nt); ("false", Int nf); ("unknown", Int nu) ]);
      ("diagnostics", List (List.map Analysis.Diag.to_json diags));
    ]

let run_paths ~note buf (lookup : lookup) (c : circuit) (r : paths_req)
    (bspec : Budget.spec) =
  let budget = Budget.instantiate bspec in
  let entry = lookup c in
  note_circuit note c.spec entry.e_net;
  put note "jobs" (Obs_json.Int r.p_jobs);
  let mc = Lazy.force entry.e_mc in
  let mnet = Mapped.network mc in
  let report =
    Sensitization.analyze ~band:r.p_band ~max_paths:r.p_max_paths ~jobs:r.p_jobs
      ~budget mc
  in
  let diags = Analysis.Passes.sensitization report in
  let nt, nf, nu = Sensitization.counts report in
  if r.p_json then
    Buffer.add_string buf
      (Obs_json.to_string (paths_json c.spec mnet report diags) ^ "\n")
  else begin
    Printf.bprintf buf "circuit: %s\n" c.spec;
    Printf.bprintf buf "delta: %.3f  band: %.3f  target: %.3f\n"
      report.Sensitization.delta report.Sensitization.band
      report.Sensitization.target;
    Printf.bprintf buf "near-critical paths: %d%s\n"
      (List.length report.Sensitization.paths)
      (if report.Sensitization.truncated then
         "  (truncated: enumeration capped, missed paths unclassified)"
       else "");
    List.iter
      (fun (cl : Sensitization.classified) ->
        let p = cl.Sensitization.path in
        Printf.bprintf buf "  %-8s %s: %s%s\n"
          (Sensitization.verdict_name cl.Sensitization.verdict)
          p.Paths.output (Paths.to_string mnet p)
          (match cl.Sensitization.verdict with
          | Sensitization.True w -> "  witness " ^ pp_witness mnet w
          | Sensitization.False -> ""
          | Sensitization.Unknown r -> "  (" ^ Budget.reason_to_string r ^ ")"))
      report.Sensitization.paths;
    List.iter
      (fun (s : Sensitization.summary) ->
        if s.Sensitization.num_paths > 0 then
          Printf.bprintf buf
            "output %-16s paths: %d (%d true, %d false, %d unknown)  arrival: \
             %.3f  functional: %.3f\n"
            s.Sensitization.output s.Sensitization.num_paths
            s.Sensitization.num_true s.Sensitization.num_false
            s.Sensitization.num_unknown s.Sensitization.topological
            s.Sensitization.functional)
      report.Sensitization.summaries;
    Printf.bprintf buf "functional delta: %.3f  (topological %.3f)\n"
      report.Sensitization.functional_delta report.Sensitization.delta;
    List.iter
      (fun d -> Printf.bprintf buf "%s\n" (Analysis.Diag.to_string d))
      (Analysis.Diag.sort diags);
    Printf.bprintf buf "verdicts: %d true, %d false, %d unknown\n" nt nf nu
  end;
  Analysis.Diag.exit_code ~fail_on:r.p_fail_on diags

(* --- protect ------------------------------------------------------------- *)

type protect_req = { m_theta : float; m_jobs : int; m_prune : bool }

let run_protect ~note ?out buf (lookup : lookup) (c : circuit) (r : protect_req)
    (bspec : Budget.spec) =
  let entry = lookup c in
  note_circuit note c.spec entry.e_net;
  note_run note ~theta:r.m_theta ~jobs:r.m_jobs;
  let options =
    {
      Masking.Synthesis.default_options with
      theta = r.m_theta;
      jobs = r.m_jobs;
      prune_false_paths = r.m_prune;
      budget = bspec;
    }
  in
  let m = Masking.Synthesis.synthesize ~options entry.e_net in
  put note "tier"
    (Obs_json.String (Spcf.Governed.tier_to_string m.Masking.Synthesis.tier));
  let v = Masking.Verify.check m in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "circuit: %s@." c.spec;
  Format.fprintf ppf "%a@." Masking.Verify.pp v;
  (match m.Masking.Synthesis.pruned with
  | [] -> ()
  | pruned ->
    Format.fprintf ppf "pruned false-path outputs: %s@." (String.concat ", " pruned));
  Format.pp_print_flush ppf ();
  report_synthesis_degradation buf m;
  (match out with
  | Some path ->
    Blif.write_file ~model:(Filename.basename path) path
      (Mapped.network m.Masking.Synthesis.combined);
    Printf.bprintf buf "combined circuit written to %s\n" path
  | None -> ());
  0

(* --- eco ----------------------------------------------------------------- *)

type eco_req = {
  c_edits_name : string;  (** display name (the CLI's --edits path) *)
  c_edits : string;  (** edit-sequence text *)
  c_theta : float;
  c_band : float option;
  c_jobs : int;
  c_json : bool;
  c_check : bool;
}

(* The baseline snapshot is the expensive, circuit-pure half of an eco
   job; the server memoizes it per (circuit, theta, band) through this
   hook. The default recomputes from scratch — the one-shot path. *)
type snapshot_for =
  theta:float -> band:float option -> jobs:int -> budget:Budget.t -> Eco.design -> Eco.t

let default_snapshot ~theta ~band ~jobs ~budget d0 =
  Eco.snapshot ~theta ?band ~jobs ~budget d0

let eco_json spec ~edits ~jobs ~check_result (base : Eco.t) (t : Eco.t) =
  let open Obs_json in
  let st = t.Eco.stats in
  Obj
    ([
       ("circuit", String spec);
       ("edits", Int (List.length edits));
       ("theta", Float t.Eco.theta);
       ("jobs", Int jobs);
       ("delta_before", Float base.Eco.delta);
       ("delta_after", Float t.Eco.delta);
       ("target", Float t.Eco.target);
       ("total_signals", Int st.Eco.total_signals);
       ("dirty_signals", Int st.Eco.dirty_signals);
       ("funcs_reused", Int st.Eco.funcs_reused);
       ("funcs_rebuilt", Int st.Eco.funcs_rebuilt);
       ("sigmas_reused", Int st.Eco.sigmas_reused);
       ("sigmas_recomputed", Int st.Eco.sigmas_recomputed);
       ("delta_changed", Bool st.Eco.delta_changed);
       ("critical_outputs", List (List.map (fun (n, _, _) -> String n) t.Eco.sigmas));
       ("fingerprint", String (Eco.fingerprint t));
     ]
    @ (match t.Eco.band with Some b -> [ ("band", Float b) ] | None -> [])
    @
    match check_result with
    | None -> []
    | Some ok -> [ ("check", String (if ok then "identical" else "DIVERGED")) ])

let run_eco ~note ?(snapshot_for = default_snapshot) buf (lookup : lookup)
    (c : circuit) (r : eco_req) (bspec : Budget.spec) =
  let budget = Budget.instantiate bspec in
  let entry = lookup c in
  note_circuit note c.spec entry.e_net;
  note_run note ~theta:r.c_theta ~jobs:r.c_jobs;
  let mc = Lazy.force entry.e_mc in
  let d0 = Eco.design_of_mapped mc in
  let edits = Eco.parse_edits d0 r.c_edits in
  let base =
    Obs.with_span "eco.baseline" (fun () ->
        snapshot_for ~theta:r.c_theta ~band:r.c_band ~jobs:r.c_jobs ~budget d0)
  in
  let t = Obs.with_span "eco.recompute" (fun () -> Eco.recompute ~jobs:r.c_jobs base edits) in
  let check_result =
    if not r.c_check then None
    else
      Some
        (Obs.with_span "eco.check" (fun () ->
             let full =
               Eco.snapshot ~theta:r.c_theta ?band:r.c_band ~jobs:r.c_jobs ~budget
                 t.Eco.design
             in
             Eco.canonical full = Eco.canonical t))
  in
  let st = t.Eco.stats in
  put note "edits" (Obs_json.Int (List.length edits));
  put note "dirty_signals" (Obs_json.Int st.Eco.dirty_signals);
  if r.c_json then
    Buffer.add_string buf
      (Obs_json.to_string
         (eco_json c.spec ~edits ~jobs:r.c_jobs ~check_result base t)
      ^ "\n")
  else begin
    Printf.bprintf buf "circuit: %s\n" c.spec;
    Printf.bprintf buf "edits: %d  (from %s)\n" (List.length edits) r.c_edits_name;
    Printf.bprintf buf "delta: %.3f -> %.3f%s  target: %.3f  (theta %.3f)\n"
      base.Eco.delta t.Eco.delta
      (if st.Eco.delta_changed then "  [changed: all targets re-derived]" else "")
      t.Eco.target r.c_theta;
    Printf.bprintf buf "dirty cone: %d of %d signals\n" st.Eco.dirty_signals
      st.Eco.total_signals;
    Printf.bprintf buf "node functions: %d reused, %d rebuilt\n" st.Eco.funcs_reused
      st.Eco.funcs_rebuilt;
    Printf.bprintf buf "output SPCFs:   %d reused, %d recomputed\n"
      st.Eco.sigmas_reused st.Eco.sigmas_recomputed;
    Printf.bprintf buf "critical outputs: %s\n"
      (match t.Eco.sigmas with
      | [] -> "(none)"
      | l -> String.concat ", " (List.map (fun (n, _, _) -> n) l));
    (match t.Eco.sens with
    | None -> ()
    | Some rep ->
      let nt, nf, nu = Sensitization.counts rep in
      Printf.bprintf buf "sensitization: %d paths (%d true, %d false, %d unknown)\n"
        (List.length rep.Sensitization.paths)
        nt nf nu);
    Printf.bprintf buf "fingerprint: %s\n" (Eco.fingerprint t);
    match check_result with
    | None -> ()
    | Some true ->
      Printf.bprintf buf
        "check: incremental = full recompute (canonical forms identical)\n"
    | Some false ->
      Printf.bprintf buf
        "check: DIVERGED — incremental differs from full recompute\n"
  end;
  match check_result with Some false -> 1 | _ -> 0

(* --- the CLI exception boundary, shared ---------------------------------- *)

(* One classification for both frontends: the CLI prints
   "emask: error CODE: MSG" and exits 2, the server ships the same
   code/message in an error response. [Gate_failed] keeps its own
   (codeless) CLI rendering, so it is not listed here. *)
let error_code = function
  | Blif.Parse_error msg -> Some ("BLIF001", msg)
  | Sys_error msg -> Some ("IO001", msg)
  | Failure msg -> Some ("CLI001", msg)
  | Invalid_argument msg -> Some ("CLI002", msg)
  | Budget.Budget_exceeded r ->
    Some ("BUDGET001", "resource budget exhausted: " ^ Budget.reason_to_string r)
  | _ -> None
