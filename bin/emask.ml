(* emask — command-line driver for the error-masking library.

   Subcommands:
     list      enumerate the built-in benchmark suite
     lint      static analysis: structural, timing and masking checks
     spcf      compute speed-path characteristic functions
     paths     near-critical path sensitization verdicts + witnesses
     protect   synthesize + verify an error-masking circuit
     eco       incremental recompute after an edit sequence
     wearout   aging sweep with the timing simulator
     trace     trace-buffer window expansion report
     fuzz      property-based differential fuzzing of the whole stack
     report    diff the EMASK_LEDGER run ledger, incl. bench baselines
     serve     the persistent analysis daemon
     client    run lint/spcf/paths/protect/eco (same flags) on a daemon

   Every subcommand accepts --stats (print the instrumentation report:
   span tree, counters, histograms), --stats-json FILE (the same data
   as JSON), --trace FILE (Chrome/Perfetto timeline, one row per
   domain) and --prom FILE (Prometheus text exposition). EMASK_OBS=1
   in the environment enables the report without a flag, and
   EMASK_LEDGER=FILE appends one JSONL record per invocation.

   Exit codes: 0 success / lint clean; 1 lint warnings under
   --fail-on=warning; 2 lint errors (including pre-flight failures of
   the other subcommands). *)

open Cmdliner

(* Every entry point pre-flights its input with the cheap error-only
   lint subset and exits 2 with a one-line summary instead of failing
   deep inside BDD construction ([Cli.guarded] renders the
   [Analysis.Lint.Gate_failed] the shared loader raises). *)
let load_circuit spec =
  (Serve_jobs.load_entry (Serve_client.circuit_of_spec spec)).Serve_jobs.e_net

let circuit_arg =
  let doc = "Benchmark name (see $(b,emask list)) or path to a BLIF file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

(* The CIRCUIT argument as a job would ship it: a file is read here. *)
let circuit = Term.(const Serve_client.circuit_of_spec $ circuit_arg)

let report_synthesis_degradation (m : Masking.Synthesis.t) =
  let buf = Buffer.create 128 in
  Serve_jobs.report_synthesis_degradation buf m;
  print_string (Buffer.contents buf)

(* --- instrumentation plumbing ------------------------------------------ *)

let stats_arg =
  let doc = "Print the instrumentation report (span tree, counters, histograms)." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let prom_arg =
  let doc =
    "Write the counter/histogram registry in Prometheus text exposition format to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)

let obs_term =
  Term.(
    const (fun s j t p -> (s, j, t, p))
    $ stats_arg $ Cli.stats_json $ Cli.trace $ prom_arg)

(* Run [f] under a root span; afterwards write the requested export
   files, print the report when asked for, and append the run-ledger
   record. With no flag, no EMASK_OBS and no EMASK_LEDGER, collection
   stays disabled and output is exactly the uninstrumented CLI's. The
   textual report prints only for --stats / EMASK_OBS — a ledger or an
   export file alone keeps stdout quiet. *)
let with_obs (stats, json, trace_out, prom) name f =
  if stats || json <> None || prom <> None || Obs_ledger.enabled () then
    Obs.set_enabled true;
  if trace_out <> None then begin
    Obs.set_enabled true;
    Obs.set_trace_enabled true
  end;
  let r, runtime = Obs.timed ("emask." ^ name) f in
  Obs_ledger.note "runtime_s" (Obs_json.Float runtime);
  (match json with Some path -> Obs_json.write_file path | None -> ());
  (match trace_out with
  | Some path ->
    Obs_trace.write_file path;
    Printf.eprintf "trace written to %s\n%!" path
  | None -> ());
  (match prom with Some path -> Obs_prom.write_file path | None -> ());
  if stats || Obs.env_truthy "EMASK_OBS" then Obs_report.print stdout;
  Obs_ledger.append ~cmd:name ();
  r

(* The ledger-fact sink handed to the shared job runners: the global
   note store when a ledger is configured, else nothing. *)
let cli_note () = if Obs_ledger.enabled () then Some Obs_ledger.note else None
let note_circuit spec net = Serve_jobs.note_circuit (cli_note ()) spec net

(* --- analysis jobs: one request term per job --------------------------- *)

(* Each of lint/spcf/paths/protect/eco is one term producing a
   [Serve_protocol.request]; the one-shot subcommand and
   [emask client <job>] are both built from it, so the two accept the
   same flags with the same defaults and domains. *)

let json_arg =
  let doc = "Emit the diagnostics as a JSON report on stdout instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let contract_arg =
  let doc =
    "Also synthesize the error-masking circuit and verify the paper's masking \
     contract (mux insertion, non-intrusiveness, indicator soundness, the >= 20% \
     timing-slack margin)."
  in
  Arg.(value & flag & info [ "contract" ] ~doc)

let prune_arg =
  let doc =
    "Drop a critical output from the masking cover when every near-critical path \
     to it is provably false and its SPCF is empty (see $(b,emask paths)); the \
     indicator shrinks, the soundness interval is preserved and re-verified."
  in
  Arg.(value & flag & info [ "prune-false-paths" ] ~doc)

let edits_arg =
  let doc =
    "Edit-sequence file, one edit per line: $(b,replace), $(b,rewire), $(b,add), \
     $(b,remove), $(b,add-output), $(b,drop-output); blank lines and $(b,#) \
     comments are skipped. Fuzz $(b,.eco) repro files use this format."
  in
  Arg.(required & opt (some string) None & info [ "edits" ] ~docv:"FILE" ~doc)

let eco_band_arg =
  Cli.opt_arg
    {
      Serve_opts.band with
      doc =
        "Also carry sensitization verdicts for the near-critical band (same \
         semantics as $(b,emask paths --band)); verdicts on paths through clean \
         outputs are reused from the baseline.";
    }

let check_arg =
  let doc =
    "Cross-check the incremental result against a full from-scratch analysis of \
     the edited design: the canonical forms must be byte-identical (exit 1 \
     otherwise). This is the $(b,eco-equal) oracle on the given edit sequence."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

(* Lint a circuit. BLIF files are first analyzed in raw form (the only
   form in which cycles and undriven/multiply-driven signals are even
   representable); if the source passes the error-level checks it is
   elaborated and the semantic + timing passes run on the mapped
   realization. Suite circuits skip the source stage. *)
let lint_info =
  ( "lint",
    "Statically analyze a circuit: structural well-formedness (cycles, undriven \
     and multiply-driven signals, dead cones, provable constants), STA \
     consistency, and optionally the masking contract" )

let lint_term =
  Term.(
    const (fun c l_fail_on l_json l_contract l_theta l_jobs ->
        Serve_protocol.Lint
          (c, { Serve_jobs.l_fail_on; l_json; l_contract; l_theta; l_jobs }))
    $ circuit $ Cli.arg Serve_opts.fail_on $ json_arg $ contract_arg
    $ Cli.arg Serve_opts.theta $ Cli.jobs)

let spcf_info = ("spcf", "Compute the speed-path characteristic function")

let spcf_term =
  Term.(
    const (fun c s_theta s_algorithm s_jobs b ->
        Serve_protocol.Spcf (c, { Serve_jobs.s_theta; s_algorithm; s_jobs }, b))
    $ circuit $ Cli.arg Serve_opts.theta $ Cli.arg Serve_opts.algorithm $ Cli.jobs
    $ Cli.budget)

let paths_info =
  ( "paths",
    "Enumerate the near-critical structural paths and classify each as true \
     (sensitizable, with a SAT witness pattern), false (no input pattern \
     sensitizes it) or unknown (budget exhausted); reports the tightened \
     functional delay bound per output" )

let paths_term =
  Term.(
    const (fun c p_band p_max_paths p_jobs p_json p_fail_on b ->
        Serve_protocol.Paths
          (c, { Serve_jobs.p_band; p_max_paths; p_jobs; p_json; p_fail_on }, b))
    $ circuit $ Cli.arg Serve_opts.band $ Cli.arg Serve_opts.max_paths $ Cli.jobs
    $ json_arg $ Cli.arg Serve_opts.fail_on $ Cli.budget)

let protect_info = ("protect", "Synthesize and verify an error-masking circuit")

let protect_term =
  Term.(
    const (fun c m_theta m_jobs m_prune b ->
        Serve_protocol.Protect (c, { Serve_jobs.m_theta; m_jobs; m_prune }, b))
    $ circuit $ Cli.arg Serve_opts.theta $ Cli.jobs $ prune_arg $ Cli.budget)

let eco_info =
  ( "eco",
    "Apply an engineering-change-order edit sequence and incrementally re-derive \
     the timing-error-masking analysis: only the dirty transitive-fanout cone is \
     recomputed; node functions, per-output SPCFs, masking covers and \
     sensitization verdicts outside the cone are reused from the baseline \
     snapshot" )

let eco_term =
  Term.(
    const (fun c c_edits_name c_theta c_band c_jobs c_json c_check b ->
        Serve_protocol.Eco
          ( c,
            {
              Serve_jobs.c_edits_name;
              c_edits = Serve_client.read_file c_edits_name;
              c_theta;
              c_band;
              c_jobs;
              c_json;
              c_check;
            },
            b ))
    $ circuit $ edits_arg $ Cli.arg Serve_opts.theta $ eco_band_arg $ Cli.jobs
    $ json_arg $ check_arg $ Cli.budget)

(* A one-shot job: the same dispatcher the daemon's workers use, over
   the uncached loader, printed to stdout; the job's code is the exit
   status. *)
let one_shot (name, doc) ?(out = Term.const None) req =
  let run obs out req =
    let code =
      with_obs obs name @@ fun () ->
      let buf = Buffer.create 1024 in
      let code =
        Serve.run_request ~note:(cli_note ()) ?out ~lookup:Serve_jobs.load_entry
          ~budget:Fun.id buf req
      in
      print_string (Buffer.contents buf);
      code
    in
    if code <> 0 then exit code
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ obs_term $ out $ req)

let out_arg =
  let doc = "Write the combined (protected) circuit as BLIF to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* --- subcommands -------------------------------------------------------- *)

let list_run obs =
  with_obs obs "list" @@ fun () ->
  Printf.printf "%-18s %8s %8s %8s\n" "name" "inputs" "outputs" "paper-gates";
  List.iter
    (fun e ->
      Printf.printf "%-18s %8d %8d %8d\n" e.Suite.ename e.Suite.params.Generator.n_pi
        e.Suite.params.Generator.n_po e.Suite.paper_gates)
    Suite.all

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark suite")
    Term.(const list_run $ obs_term)

let wearout_run obs spec trials budget =
  with_obs obs "wearout" @@ fun () ->
  let net = load_circuit spec in
  note_circuit spec net;
  let options = { Masking.Synthesis.default_options with budget } in
  let m = Masking.Synthesis.synthesize ~options net in
  if Obs_ledger.enabled () then
    Obs_ledger.note "tier"
      (Obs_json.String (Spcf.Governed.tier_to_string m.Masking.Synthesis.tier));
  report_synthesis_degradation m;
  let samples =
    Obs.with_span "aging-sweep" (fun () -> Masking.Monitor.aging_sweep ~trials m)
  in
  List.iter (fun s -> Format.printf "%a@." Masking.Monitor.pp_sample s) samples

let trials_arg =
  Cli.count ~flags:[ "trials" ] ~docv:"N"
    ~doc:"Random input transitions per aging factor." 400

let wearout_cmd =
  Cmd.v
    (Cmd.info "wearout" ~doc:"Aging sweep: raw vs masked vs logged error rates")
    Term.(const wearout_run $ obs_term $ circuit_arg $ trials_arg $ Cli.budget)

let trace_run obs spec buffer cycles =
  with_obs obs "trace" @@ fun () ->
  let net = load_circuit spec in
  note_circuit spec net;
  let m = Masking.Synthesis.synthesize net in
  let r =
    Obs.with_span "selective-capture" (fun () ->
        Masking.Trace_buffer.selective_capture ~buffer_size:buffer ~cycles m)
  in
  Format.printf "%a@." Masking.Trace_buffer.pp r

let buffer_arg =
  Cli.count ~flags:[ "buffer" ] ~docv:"ENTRIES" ~doc:"Trace buffer size." 64

let cycles_arg = Cli.count ~flags:[ "cycles" ] ~docv:"N" ~doc:"Cycles to simulate." 100000

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Trace-buffer window expansion via selective capture")
    Term.(const trace_run $ obs_term $ circuit_arg $ buffer_arg $ cycles_arg)

(* --- fuzz --------------------------------------------------------------- *)

let seed_arg =
  let doc =
    "Root seed. Every failure report names (seed, index), which replays the sample \
     exactly."
  in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let count_arg =
  Cli.count ~flags:[ "count"; "n" ] ~docv:"N"
    ~doc:"Number of random specimens to generate." 100

(* --time-budget is a deprecated alias that yields to --timeout. *)
let fuzz_budget =
  let time_budget =
    Cli.opt_arg
      {
        Serve_opts.timeout with
        flags = [ "time-budget" ];
        docv = "S";
        doc = "Deprecated alias for $(b,--timeout).";
      }
  in
  Cli.budget_with
    Term.(
      const (fun timeout time_budget ->
          match timeout with Some _ -> timeout | None -> time_budget)
      $ Cli.opt_arg Serve_opts.timeout $ time_budget)

let oracle_arg =
  let doc =
    Printf.sprintf "Run only the named oracle (default: all). One of: %s."
      (String.concat ", " Fuzz.Oracle.names)
  in
  Arg.(value & opt (some string) None & info [ "oracle" ] ~docv:"NAME" ~doc)

let shrink_arg =
  let doc =
    "Greedily minimize failing specimens (delete outputs, gates, cover rows, pins) \
     before writing the repro."
  in
  Arg.(value & flag & info [ "shrink" ] ~doc)

let fuzz_out_arg =
  let doc = "Directory for shrunken repro .blif files (created if missing)." in
  Arg.(value & opt string "." & info [ "out" ] ~docv:"DIR" ~doc)

let fuzz_run obs seed count oracle shrink out budget =
  let code =
    with_obs obs "fuzz" @@ fun () ->
    let oracles =
      match oracle with
      | None -> Fuzz.Oracle.all
      | Some name -> (
        match Fuzz.Oracle.find name with
        | Some o -> [ o ]
        | None ->
          Printf.eprintf "unknown oracle %S (have: %s)\n" name
            (String.concat ", " Fuzz.Oracle.names);
          exit 2)
    in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let config =
      {
        Fuzz.Driver.default_config with
        seed;
        count;
        budget;
        oracles;
        shrink;
        out_dir = Some out;
      }
    in
    if Obs_ledger.enabled () then begin
      Obs_ledger.note "seed" (Obs_json.Int seed);
      Obs_ledger.note "count" (Obs_json.Int count)
    end;
    let summary = Fuzz.Driver.run config in
    if Obs_ledger.enabled () then
      Obs_ledger.note "failures"
        (Obs_json.Int (List.length summary.Fuzz.Driver.failures));
    List.iter
      (fun o ->
        Printf.printf "  oracle %-16s %s\n" o.Fuzz.Oracle.name o.Fuzz.Oracle.describe)
      oracles;
    if summary.Fuzz.Driver.failures = [] then 0 else 1
  in
  if code <> 0 then exit code

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based differential fuzzing: random netlists (including degenerate \
          shapes) are cross-checked through the SPCF algorithms, the simulators, the \
          static timing bounds, the masking synthesis and the BLIF round-trip; \
          failures are shrunk to minimal repro netlists")
    Term.(
      const fuzz_run $ obs_term $ seed_arg $ count_arg $ oracle_arg $ shrink_arg
      $ fuzz_out_arg $ fuzz_budget)

(* --- report: diff run-ledger trajectories ------------------------------- *)

(* Typed accessors over ledger records (missing fields are simply absent
   — older schema versions and hand-written records must still print). *)
let field_string key r =
  match Obs_json.member key r with Some (Obs_json.String s) -> Some s | _ -> None

let field_float key r =
  match Obs_json.member key r with
  | Some (Obs_json.Float f) -> Some f
  | Some (Obs_json.Int i) -> Some (float_of_int i)
  | _ -> None

let field_counters r =
  match Obs_json.member "counters" r with
  | Some (Obs_json.Obj fields) ->
    List.filter_map
      (fun (k, v) -> match v with Obs_json.Int i -> Some (k, i) | _ -> None)
      fields
  | _ -> []

(* Runs group by what they computed: the command plus the circuit
   identity (content hash when known, name otherwise; bench rows use
   the case name). *)
let record_group r =
  let cmd = Option.value ~default:"?" (field_string "cmd" r) in
  let subject =
    match field_string "case" r with
    | Some c -> c
    | None -> (
      match (field_string "circuit_sha" r, field_string "circuit" r) with
      | Some sha, Some c -> Printf.sprintf "%s#%s" c (String.sub sha 0 8)
      | Some sha, None -> sha
      | None, Some c -> c
      | None, None -> "-")
  in
  (cmd, subject)

let record_time r =
  match field_float "runtime_s" r with
  | Some t -> Some ("runtime", t)
  | None -> (
    match field_float "ns_per_run" r with
    | Some ns -> Some ("per-run", ns /. 1e9)
    | None -> None)

let pp_delta ?(what = "prev") cur prev =
  if prev > 0. then
    Printf.sprintf " (%+.1f%% vs %s)" ((cur /. prev -. 1.) *. 100.) what
  else ""

let print_group (cmd, subject) records =
  let n = List.length records in
  let latest = List.nth records (n - 1) in
  let prev = if n >= 2 then Some (List.nth records (n - 2)) else None in
  Printf.printf "%s %s  (%d run%s)\n" cmd subject n (if n = 1 then "" else "s");
  let describe r =
    String.concat "  "
      (List.filter_map
         (fun f -> f r)
         [
           (fun r -> field_string "ts_iso" r);
           (fun r ->
             Option.map (fun (what, t) -> Printf.sprintf "%s %.4fs" what t)
               (record_time r));
           (fun r -> Option.map (fun t -> "tier " ^ t) (field_string "tier" r));
           (fun r ->
             Option.map
               (fun j -> Printf.sprintf "jobs %d" (int_of_float j))
               (field_float "jobs" r));
         ])
  in
  Printf.printf "  latest: %s%s\n" (describe latest)
    (match (record_time latest, Option.bind prev record_time) with
    | Some (_, cur), Some (_, p) -> pp_delta cur p
    | _ -> "");
  (match prev with
  | Some p -> Printf.printf "  prev:   %s\n" (describe p)
  | None -> ());
  (* Counter drift: the latest run's counters against the previous
     run's, changed entries only — constant counters are noise here. *)
  match prev with
  | None -> ()
  | Some p ->
    let prev_counters = field_counters p in
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k prev_counters with
        | Some pv when pv <> v ->
          Printf.printf "  counter %-32s %d -> %d%s\n" k pv v
            (if pv > 0 then
               Printf.sprintf " (%+.1f%%)"
                 ((float_of_int v /. float_of_int pv -. 1.) *. 100.)
             else "")
        | _ -> ())
      (field_counters latest)

(* Bench baselines (BENCH_*.json): case name -> ns_per_run. *)
let baseline_entries path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs_json.of_string s with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j -> (
    match Obs_json.member "results" j with
    | Some (Obs_json.Obj fields) ->
      List.filter_map
        (fun (name, entry) ->
          Option.map (fun ns -> (name, ns)) (field_float "ns_per_run" entry))
        fields
    | _ -> failwith (Printf.sprintf "%s: no results object" path))

let compare_against_baselines ~baselines records =
  let latest_ns = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match (field_string "case" r, field_float "ns_per_run" r) with
      | Some case, Some ns -> Hashtbl.replace latest_ns case ns
      | _ -> ())
    records;
  let compared = ref 0 in
  List.iter
    (fun (name, base) ->
      match Hashtbl.find_opt latest_ns name with
      | Some ns when base > 0. ->
        incr compared;
        Printf.printf "  %-48s %10.3f ms/run  baseline %10.3f%s\n" name (ns /. 1e6)
          (base /. 1e6)
          (pp_delta ~what:"baseline" ns base)
      | _ -> ())
    baselines;
  if !compared = 0 then
    Printf.printf "  (no ledger bench records match the baseline cases)\n"

let report_run ledger againsts last =
  let path =
    match (ledger, Obs_ledger.path ()) with
    | Some p, _ -> p
    | None, Some p -> p
    | None, None ->
      Cli.cli_error "emask" "LEDGER001"
        (Printf.sprintf "no ledger: pass --ledger FILE or set %s"
           Obs_ledger.env_var)
  in
  let records =
    match Obs_ledger.read_file path with
    | Ok rs -> rs
    | Error e -> Cli.cli_error "emask" "LEDGER002" e
  in
  let records =
    (* Most recent N, in chronological order. *)
    let n = List.length records in
    if n <= last then records
    else List.filteri (fun i _ -> i >= n - last) records
  in
  if records = [] then print_endline "ledger is empty"
  else begin
    Printf.printf "ledger: %s  (%d record%s shown)\n\n" path (List.length records)
      (if List.length records = 1 then "" else "s");
    let groups = ref [] in
    List.iter
      (fun r ->
        let g = record_group r in
        match List.assoc_opt g !groups with
        | Some rs -> rs := r :: !rs
        | None -> groups := !groups @ [ (g, ref [ r ]) ])
      records;
    List.iter
      (fun (g, rs) ->
        print_group g (List.rev !rs);
        print_newline ())
      !groups;
    match againsts with
    | [] -> ()
    | paths ->
      let baselines = List.concat_map baseline_entries paths in
      Printf.printf "against %s:\n" (String.concat ", " paths);
      compare_against_baselines ~baselines records
  end

let ledger_arg =
  let doc =
    Printf.sprintf "Ledger file to report on (default: \\$(b,%s))."
      Obs_ledger.env_var
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let against_arg =
  let doc =
    "Compare the ledger's latest bench records against a $(b,BENCH_*.json) \
     baseline (repeatable)."
  in
  Arg.(value & opt_all string [] & info [ "against" ] ~docv:"FILE" ~doc)

(* Same converter discipline as --jobs: "--last 0" would silently
   report on nothing, so it is an argument error, not an empty
   report. *)
let last_arg =
  Cli.count ~flags:[ "last" ] ~docv:"N"
    ~doc:"Only consider the most recent $(docv) ledger records." 50

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Diff run-ledger trajectories: group the JSONL records appended under \
          \\$(b,EMASK_LEDGER) by command and circuit, show runtime and counter \
          drift between consecutive runs, and compare bench records against \
          committed BENCH_*.json baselines")
    Term.(const report_run $ ledger_arg $ against_arg $ last_arg)

(* --- serve / client: masking-as-a-service ------------------------------- *)

let port_conv =
  let parse str =
    match int_of_string_opt str with
    | Some n when n >= 0 && n <= 65535 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "PORT must lie in 0..65535, got %S" str))
  in
  Arg.conv (parse, Format.pp_print_int)

let port_arg =
  let doc = "TCP port to listen on (0 asks the kernel to pick one)." in
  Arg.(value & opt port_conv 9309 & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let socket_arg =
  let doc = "Listen on a Unix-domain socket at $(docv) instead of TCP." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let queue_arg =
  Cli.count ~flags:[ "queue" ] ~docv:"N"
    ~doc:
      "Admission-queue bound: a request arriving with $(docv) jobs already queued is \
       rejected immediately with a QUEUE001 diagnostic, never parked."
    16

let cache_mb_arg =
  Cli.count ~flags:[ "cache-mb" ] ~docv:"MIB"
    ~doc:
      "Approximate capacity of the parsed/mapped circuit LRU in MiB (eco baseline \
       snapshots are cached per circuit, theta and band)."
    256

let serve_ledger_arg =
  let doc =
    Printf.sprintf
      "Append one JSONL record per served request to $(docv) (default: \
       \\$(b,%s))."
      Obs_ledger.env_var
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let read_timeout_arg =
  Cli.arg
    {
      Serve_opts.timeout with
      flags = [ "read-timeout" ];
      docv = "SECONDS";
      doc =
        "Per-connection request-read deadline in seconds (SO_RCVTIMEO): a client that \
         connects but never finishes its request is dropped after $(docv) instead of \
         blocking admission.";
      default = Some 10.;
    }

let verbose_arg =
  let doc = "Log lifecycle events to stderr." in
  Arg.(value & flag & info [ "verbose" ] ~doc)

let serve_run port socket jobs queue cache_mb ledger read_timeout verbose budget =
  let bind =
    match socket with
    | Some path -> Serve.Unix_sock path
    | None -> Serve.Tcp ("127.0.0.1", port)
  in
  let config =
    {
      Serve.bind;
      jobs;
      queue_cap = queue;
      cache_mb;
      default_budget = budget;
      ledger = (match ledger with Some _ -> ledger | None -> Obs_ledger.path ());
      read_timeout;
      verbose;
    }
  in
  Serve.run config
    ~ready:(fun bound ->
      match bind with
      | Serve.Tcp (host, _) -> Printf.printf "listening on %s:%d\n%!" host bound
      | Serve.Unix_sock path -> Printf.printf "listening on %s\n%!" path)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis daemon: lint/spcf/paths/protect/eco jobs \
          over a length-prefixed JSON protocol on a TCP or Unix socket, with a \
          worker-domain pool, a bounded admission queue, per-request budgets with \
          disconnect cancellation, a content-addressed circuit LRU, and a \
          Prometheus /metrics endpoint; responses are byte-identical to the \
          one-shot CLI")
    Term.(
      const serve_run $ port_arg $ socket_arg $ Cli.jobs $ queue_arg $ cache_mb_arg
      $ serve_ledger_arg $ read_timeout_arg $ verbose_arg $ Cli.budget)

(* --- client -------------------------------------------------------------- *)

let host_arg =
  let doc = "Daemon host." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let endpoint =
  Term.(
    const (fun socket host port ->
        match socket with
        | Some path -> Serve_client.Unix_sock path
        | None -> Serve_client.Tcp (host, port))
    $ socket_arg $ host_arg $ port_arg)

let client_run endpoint req =
  match Serve_client.roundtrip endpoint req with
  | Serve_protocol.Ok_output (code, output) ->
    print_string output;
    if code <> 0 then exit code
  | Serve_protocol.Rejected (code, msg) | Serve_protocol.Error_resp (code, msg) ->
    Cli.cli_error "emask" code msg

let client_job (name, doc) req =
  Cmd.v (Cmd.info name ~doc) Term.(const client_run $ endpoint $ req)

let delay_arg =
  let doc = "Seconds the job holds a worker (a test/diagnostic aid)." in
  Arg.(value & opt float 0. & info [ "delay" ] ~docv:"SEC" ~doc)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Run one job against a running $(b,emask serve) daemon; each job accepts \
          the flags of its one-shot subcommand, and output and exit code match the \
          equivalent one-shot invocation")
    [
      client_job lint_info lint_term;
      client_job spcf_info spcf_term;
      client_job paths_info paths_term;
      client_job protect_info protect_term;
      client_job eco_info eco_term;
      client_job
        ("ping", "Check that the daemon answers")
        Term.(const (fun d -> Serve_protocol.Ping d) $ delay_arg);
      client_job
        ("metrics", "Print the daemon's Prometheus exposition")
        (Term.const Serve_protocol.Metrics);
      client_job
        ("shutdown", "Stop the daemon after draining its workers")
        (Term.const Serve_protocol.Shutdown);
    ]

let () =
  Cli.main
    (Cmd.group
       (Cmd.info "emask" ~version:"1.0.0"
          ~doc:"Masking timing errors on speed-paths in logic circuits (DATE 2009)")
       [
         list_cmd;
         one_shot lint_info lint_term;
         one_shot spcf_info spcf_term;
         one_shot paths_info paths_term;
         one_shot protect_info ~out:out_arg protect_term;
         one_shot eco_info eco_term;
         wearout_cmd;
         trace_cmd;
         fuzz_cmd;
         report_cmd;
         serve_cmd;
         client_cmd;
       ])
