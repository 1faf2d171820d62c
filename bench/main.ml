(* Bechamel benchmark harness: one benchmark group per table/figure of
   the paper, plus ablation benches for the design decisions DESIGN.md
   calls out. The tables themselves are regenerated by bin/table1.exe
   and bin/table2.exe; these benchmarks measure the cost of regenerating
   each result, so performance regressions in the algorithms show up.

     dune exec bench/main.exe               # run everything
     dune exec bench/main.exe -- table1     # filter by substring
     dune exec bench/main.exe -- --json     # measure table1+table2 and
                                            # write BENCH_table1.json /
                                            # BENCH_table2.json baselines
     dune exec bench/main.exe -- --json --quick          # two small circuits,
                                            # written to BENCH_table1.quick.json /
                                            # BENCH_table2.quick.json
     dune exec bench/main.exe -- --json --quick \
         --against BENCH_table1.json --against BENCH_table2.json
                                            # fail (exit 1) on any counter
                                            # drift or a >3x regression

   Every case separates *setup* (circuit generation, technology mapping)
   from the *measured closure* (the algorithm under benchmark): setup
   runs once when the case is selected, never inside the staged
   function. The JSON baselines record name -> ns/run (monotonic clock,
   OLS on run count) plus the Obs counters (BDD node/cache statistics)
   of one instrumented run. Every case but the [-jobs4] twins runs on
   one domain, so its counters are deterministic and [--against] gates
   them exactly; wall time keeps only a 3x noise backstop. *)

open Bechamel
open Toolkit

let sprintf = Printf.sprintf

(* A benchmark case: [prepare] performs setup and returns the measured
   closure, so filtered-out cases pay nothing at startup. *)
type case = { cname : string; prepare : unit -> unit -> unit }

(* --- Table 1: SPCF computation, per algorithm, per circuit ------------- *)

let spcf_case algo_name algo circuit_name =
  {
    cname = sprintf "table1/%s/%s" circuit_name algo_name;
    prepare =
      (fun () ->
        (* Setup hoisted out of the measured closure: the bench measures
           SPCF context elaboration + the algorithm itself, not circuit
           generation or technology mapping. A fresh context per run
           keeps BDD caches cold, so runs are i.i.d. *)
        let net = Suite.load circuit_name in
        let mc = Mapper.map net in
        fun () ->
          let ctx = Spcf.Ctx.create mc in
          let target = Spcf.Ctx.target_of_theta ctx 0.9 in
          let r : Spcf.Ctx.result =
            match algo with
            | `Short -> Spcf.Exact.short_path ctx ~target
            | `Path -> Spcf.Exact.path_based ctx ~target
            | `Node -> Spcf.Node_based.compute ctx ~target
          in
          ignore (Sys.opaque_identity (Spcf.Ctx.num_critical_outputs r)));
  }

(* Parallel short-path. theta 0.5 keeps several outputs critical on
   every table1 circuit, so jobs > 1 actually fans out across domains
   (at theta 0.9 some circuits have a single critical output and the
   parallel driver degenerates to sequential). The jobs=1 twin runs the
   same workload on one domain over the same BDD manager kind, so the
   jobs4/jobs1 ratio is the parallel speedup on identical work. *)
let parallel_case jobs circuit_name =
  {
    cname = sprintf "table1/%s/short-path-jobs%d" circuit_name jobs;
    prepare =
      (fun () ->
        let net = Suite.load circuit_name in
        let mc = Mapper.map net in
        fun () ->
          let ctx = Spcf.Ctx.create mc in
          let target = Spcf.Ctx.target_of_theta ctx 0.5 in
          let r = Spcf.Parallel.short_path ~jobs ctx ~target in
          ignore (Sys.opaque_identity (Spcf.Ctx.num_critical_outputs r)));
  }

let table1_circuits ~quick =
  let all = List.map (fun e -> e.Suite.ename) Suite.table1_entries in
  if quick then [ "C432"; "C2670" ] else all

let table1_cases ~quick =
  List.concat_map
    (fun c ->
      [
        spcf_case "node-based" `Node c;
        spcf_case "path-based" `Path c;
        spcf_case "short-path" `Short c;
        parallel_case 1 c;
        parallel_case 4 c;
      ])
    (table1_circuits ~quick)

(* --- Table 2: error-masking synthesis + verification ------------------- *)

let synthesis_case circuit_name =
  {
    cname = sprintf "table2/%s/synthesize+verify" circuit_name;
    prepare =
      (fun () ->
        let net = Suite.load circuit_name in
        (* One SPCF domain, whatever EMASK_JOBS says, so the counters
           are deterministic. *)
        let options = { Masking.Synthesis.default_options with jobs = 1 } in
        fun () ->
          let m = Masking.Synthesis.synthesize ~options net in
          let r = Masking.Verify.check ~power_rounds:32 m in
          ignore (Sys.opaque_identity r.Masking.Verify.area_overhead_pct));
  }

let table2_circuits ~quick =
  if quick then [ "i1"; "cmb" ]
  else [ "i1"; "cmb"; "x2"; "C432"; "C2670"; "sparc_ifu_invctl"; "lsu_stb_ctl" ]

let table2_cases ~quick = List.map synthesis_case (table2_circuits ~quick)

(* --- paths/: near-critical enumeration + sensitization ----------------- *)

(* End-to-end speed-path analysis: enumerate the 10% band and classify
   every path (BDD sensitization condition + DPLL witness for each
   True). The alu2 case exercises the max_paths truncation guard; the
   ISCAS pair measures the common mixed true/false workload. *)
let paths_case circuit_name =
  {
    cname = sprintf "paths/%s/classify" circuit_name;
    prepare =
      (fun () ->
        let net = Suite.load circuit_name in
        let mc = Mapper.map net in
        fun () ->
          let r = Sensitization.analyze mc in
          ignore (Sys.opaque_identity (Sensitization.counts r)));
  }

let paths_circuits ~quick =
  if quick then [ "C432"; "C2670" ] else [ "i1"; "cmb"; "x2"; "C432"; "C2670"; "alu2" ]

let paths_cases ~quick = List.map paths_case (paths_circuits ~quick)

(* --- eco/: incremental recompute after a 1-gate edit ------------------- *)

(* Full-vs-incremental re-protection after the same 1-gate ECO (the
   smallest-cone equal-delay dual swap, so Delta is unchanged and the
   reuse machinery is actually exercised). The incremental case's
   bdd.* counters divided by the full case's are the headline reuse
   claim: a 1-gate edit re-protects with a fraction of the BDD work,
   byte-identical output (the eco-equal oracle holds the identity). *)
let eco_circuit ~quick = if quick then "C432" else "C880"

let eco_full_case circuit_name =
  {
    cname = sprintf "eco/%s/full-recompute" circuit_name;
    prepare =
      (fun () ->
        let d0 = Eco.design_of_mapped (Mapper.map (Suite.load circuit_name)) in
        let edit = Option.get (Eco.smallest_cone_edit d0) in
        let d1, _, _ = Eco.apply_all d0 [ edit ] in
        fun () ->
          let t = Eco.snapshot d1 in
          ignore (Sys.opaque_identity t.Eco.delta));
  }

let eco_incremental_case circuit_name =
  {
    cname = sprintf "eco/%s/incremental-1-gate" circuit_name;
    prepare =
      (fun () ->
        let d0 = Eco.design_of_mapped (Mapper.map (Suite.load circuit_name)) in
        let edit = Option.get (Eco.smallest_cone_edit d0) in
        let base = Eco.snapshot d0 in
        fun () ->
          let t = Eco.recompute base [ edit ] in
          ignore (Sys.opaque_identity t.Eco.delta));
  }

let eco_cases ~quick =
  let c = eco_circuit ~quick in
  [ eco_full_case c; eco_incremental_case c ]

(* --- Fig. 2: the worked comparator example ----------------------------- *)

let fig2_cases =
  [
    {
      cname = "fig2/comparator/end-to-end";
      prepare =
        (fun () ->
          let net = Comparator.network () in
          let options =
            { Masking.Synthesis.default_options with delay_model = Sta.Paper_units }
          in
          fun () ->
            let m = Masking.Synthesis.synthesize ~options net in
            ignore (Sys.opaque_identity (List.length m.Masking.Synthesis.per_output)));
    };
  ]

(* --- Sec. 2.1 applications --------------------------------------------- *)

let application_cases =
  [
    {
      cname = "wearout/i1/aging-sample";
      prepare =
        (fun () ->
          let m = Masking.Synthesis.synthesize (Suite.load "i1") in
          fun () ->
            ignore
              (Sys.opaque_identity
                 (Masking.Monitor.aging_sweep ~trials:50 ~factors:[ 1.2 ] m)));
    };
    {
      cname = "trace-buffer/C432/20k-cycles";
      prepare =
        (fun () ->
          let m = Masking.Synthesis.synthesize (Suite.load "C432") in
          fun () ->
            ignore
              (Sys.opaque_identity
                 (Masking.Trace_buffer.selective_capture ~buffer_size:64
                    ~cycles:20_000 m)));
    };
  ]

(* --- Fuzzing throughput (DESIGN.md section 10) ------------------------- *)

(* Samples/second of the differential fuzzer is what bounds the nightly
   CI budget, so regressions in specimen generation or any oracle show
   up here. One run = 10 fixed-seed samples through the full catalogue
   (shrinking never triggers on a clean tree, so it costs nothing). *)
let fuzz_cases =
  [
    {
      cname = "fuzz/catalogue/10-samples";
      prepare =
        (fun () ->
          let config =
            { Fuzz.Driver.default_config with seed = 42; count = 10 }
          in
          fun () ->
            let s = Fuzz.Driver.run ~log:(fun _ -> ()) config in
            ignore (Sys.opaque_identity s.Fuzz.Driver.checks));
    };
    {
      cname = "fuzz/generate+lower/per-spec";
      prepare =
        (fun () ->
          let root = Fuzz.Rng.create ~seed:42 in
          let i = ref 0 in
          fun () ->
            incr i;
            let rng = Fuzz.Rng.child root !i in
            ignore (Sys.opaque_identity (Fuzz.Gen.network (Fuzz.Gen.generate rng))));
    };
  ]

(* --- Ablations (DESIGN.md section 5) ----------------------------------- *)

let ablation_order order name =
  {
    cname = sprintf "ablation/cube-order/%s" name;
    prepare =
      (fun () ->
        let net = Suite.load "x2" in
        let options = { Masking.Synthesis.default_options with cube_order = order } in
        fun () ->
          let m = Masking.Synthesis.synthesize ~options net in
          ignore (Sys.opaque_identity (Mapped.area m.Masking.Synthesis.masking)));
  }

let ablation_synthesis cname circuit options =
  {
    cname;
    prepare =
      (fun () ->
        let net = Suite.load circuit in
        fun () ->
          let m = Masking.Synthesis.synthesize ~options net in
          ignore (Sys.opaque_identity (Mapped.area m.Masking.Synthesis.masking)));
  }

let ablation_cases =
  [
    ablation_order Masking.Synthesis.Ascending "ascending";
    ablation_order Masking.Synthesis.Descending "descending";
    ablation_order Masking.Synthesis.Unsorted "unsorted";
    ablation_synthesis "ablation/collapse/on" "C432"
      { Masking.Synthesis.default_options with collapse = true };
    ablation_synthesis "ablation/collapse/off" "C432"
      { Masking.Synthesis.default_options with collapse = false };
    ablation_synthesis "ablation/indicator/structural" "C432"
      { Masking.Synthesis.default_options with indicator = Masking.Synthesis.Structural };
    {
      cname = "ablation/map-style/balanced";
      prepare =
        (fun () ->
          let net = Suite.load "C880" in
          fun () -> ignore (Sys.opaque_identity (Mapper.map ~style:Mapper.Balanced net)));
    };
    {
      cname = "ablation/map-style/chain";
      prepare =
        (fun () ->
          let net = Suite.load "C880" in
          fun () -> ignore (Sys.opaque_identity (Mapper.map ~style:Mapper.Chain net)));
    };
  ]

(* --- Extensions: Razor baseline, DVS, telescopic units ----------------- *)

let extension_cases =
  [
    {
      cname = "baseline/razor-vs-masking/i1";
      prepare =
        (fun () ->
          let m = Masking.Synthesis.synthesize (Suite.load "i1") in
          fun () ->
            ignore
              (Sys.opaque_identity
                 (Masking.Razor.compare_schemes ~trials:50 ~factors:[ 1.2 ] m)));
    };
    {
      cname = "dvs/sweep-point/i1";
      prepare =
        (fun () ->
          let m = Masking.Synthesis.synthesize (Suite.load "i1") in
          fun () ->
            ignore
              (Sys.opaque_identity (Masking.Dvs.sweep ~trials:50 ~voltages:[ 0.84 ] m)));
    };
    {
      cname = "telescopic/analyze/C432";
      prepare =
        (fun () ->
          let m = Masking.Synthesis.synthesize (Suite.load "C432") in
          fun () -> ignore (Sys.opaque_identity (Masking.Telescopic.analyze m)));
    };
  ]

(* --- Substrate micro-benchmarks ----------------------------------------- *)

let substrate_cases =
  [
    {
      cname = "substrate/bdd/elaborate-C2670";
      prepare =
        (fun () ->
          let net = Suite.load "C2670" in
          fun () -> ignore (Sys.opaque_identity (Network.to_bdds net)));
    };
    {
      cname = "substrate/map+sta/lsu_stb_ctl";
      prepare =
        (fun () ->
          let net = Suite.load "lsu_stb_ctl" in
          fun () ->
            ignore (Sys.opaque_identity (Sta.delta (Sta.analyze (Mapper.map net)))));
    };
    {
      cname = "substrate/tsim/C432-transition";
      prepare =
        (fun () ->
          let net = Suite.load "C432" in
          let mc = Mapper.map net in
          let delays = Sta.gate_delays Sta.Library mc in
          let n = Array.length (Network.inputs (Mapped.network mc)) in
          let rng = Util.Rng.create 1 in
          fun () ->
            let from_ = Array.init n (fun _ -> Util.Rng.bool rng) in
            let to_ = Array.init n (fun _ -> Util.Rng.bool rng) in
            ignore
              (Sys.opaque_identity (Tsim.simulate mc ~delays ~from_ ~to_ ~clock:10.)));
    };
    {
      cname = "substrate/primes/4-input-covers";
      prepare =
        (fun () () ->
          List.iter
            (fun cell ->
              if cell.Cell.arity <= 4 then
                ignore
                  (Sys.opaque_identity
                     (Logic2.Primes.onset_and_offset_primes cell.Cell.logic)))
            Cell.all);
    };
    {
      cname = "substrate/generator/C880";
      prepare = (fun () () -> ignore (Sys.opaque_identity (Suite.load "C880")));
    };
  ]

(* --- Runner -------------------------------------------------------------- *)

let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]

(* Measure one case; returns ns/run. Setup runs here, once, outside the
   measured closure. *)
let measure cfg (c : case) =
  let fn = c.prepare () in
  let test = Test.make ~name:c.cname (Staged.stage fn) in
  let results =
    Benchmark.all cfg Instance.[ monotonic_clock ] test
    |> Hashtbl.to_seq |> List.of_seq
    |> List.map (fun (k, v) -> (k, Analyze.one ols Instance.monotonic_clock v))
  in
  let estimate =
    match results with
    | [ (_, o) ] -> (
      match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> nan)
    | _ -> nan
  in
  Printf.printf "%-48s %12.3f ms/run\n%!" c.cname (estimate /. 1e6);
  (c.cname, estimate, fn)

(* One instrumented (unmeasured) run to attach BDD/SPCF counters to a
   JSON baseline entry. It runs on a fresh domain: the per-domain
   computed cache keeps the size an earlier case grew it to, so on the
   calling domain the counts would depend on which cases ran before
   (a --quick run against a full baseline). The calling domain's Obs
   state is left as it was. *)
let counters_of fn =
  let was_on = Obs.on () in
  Obs.set_enabled true;
  let counters =
    Domain.join
      (Domain.spawn (fun () ->
           fn ();
           Obs.registered_counters ()))
  in
  Obs.set_enabled was_on;
  counters

let contains ~sub name =
  let len = String.length sub in
  let rec go i =
    i + len <= String.length name && (String.sub name i len = sub || go (i + 1))
  in
  go 0

let json_of_results ~quick results =
  Obs_json.Obj
    [
      ("schema", Obs_json.String "emask-bench/1");
      ("quick", Obs_json.Bool quick);
      ( "results",
        Obs_json.Obj
          (List.map
             (fun (name, ns, counters) ->
               ( name,
                 Obs_json.Obj
                   [
                     ("ns_per_run", Obs_json.Float ns);
                     ( "counters",
                       Obs_json.Obj
                         (List.map (fun (k, v) -> (k, Obs_json.Int v)) counters) );
                   ] ))
             results) );
    ]

let write_json path v =
  let oc = open_out path in
  Obs_json.to_channel oc v;
  output_char oc '\n';
  close_out oc;
  Printf.printf "baseline written to %s\n%!" path

(* name -> (ns/run, counters) of a previously written baseline file. *)
let load_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Obs_json.of_string s with
  | Error e -> failwith (sprintf "%s: %s" path e)
  | Ok j -> (
    match Obs_json.member "results" j with
    | Some (Obs_json.Obj fields) ->
      List.filter_map
        (fun (name, entry) ->
          let counters =
            match Obs_json.member "counters" entry with
            | Some (Obs_json.Obj cs) ->
              List.filter_map
                (function k, Obs_json.Int v -> Some (k, v) | _ -> None)
                cs
            | _ -> []
          in
          match Obs_json.member "ns_per_run" entry with
          | Some (Obs_json.Float ns) -> Some (name, (ns, counters))
          | Some (Obs_json.Int ns) -> Some (name, (float_of_int ns, counters))
          | _ -> None)
        fields
    | _ -> failwith (sprintf "%s: no results object" path))

let regression_factor = 3.0

(* The [-jobs4] twins split work over domains, so their counters vary
   with scheduling; every other case runs on one domain. *)
let exact_counters name = not (String.ends_with ~suffix:"-jobs4" name)

(* Counters whose value differs between [base] and [now], a counter
   missing on one side reading as 0. *)
let counter_drift ~base now =
  let keys = List.sort_uniq compare (List.map fst base @ List.map fst now) in
  let value l k = Option.value ~default:0 (List.assoc_opt k l) in
  List.filter_map
    (fun k ->
      let b = value base k and n = value now k in
      if b <> n then Some (k, b, n) else None)
    keys

let check_regressions ~baselines results =
  let failures = ref 0 in
  List.iter
    (fun (name, ns, counters) ->
      match List.assoc_opt name baselines with
      | None -> ()
      | Some (base_ns, base_counters) ->
        if base_ns > 0. && ns > base_ns *. regression_factor then begin
          incr failures;
          Printf.printf "REGRESSION %-48s %.2fx over baseline\n" name (ns /. base_ns)
        end;
        if exact_counters name then
          List.iter
            (fun (k, b, n) ->
              incr failures;
              Printf.printf "COUNTER DRIFT %-48s %s: %d -> %d\n" name k b n)
            (counter_drift ~base:base_counters counters))
    results;
  if !failures = 0 then begin
    Printf.printf
      "regression check: ok (%d cases; jobs-1 counters exact, time within %.1fx)\n"
      (List.length results) regression_factor;
    true
  end
  else false

let run json quick againsts filter =
  (* Baselines are loaded before any BENCH_*.json is rewritten, so a
     full run can compare against the committed files in place. *)
  let baselines = List.concat_map load_baseline againsts in
  let cfg =
    if quick then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 10) ()
  in
  let select cases =
    match filter with
    | None -> cases
    | Some sub -> List.filter (fun c -> contains ~sub c.cname) cases
  in
  Printf.printf "%-48s %15s\n" "benchmark" "time";
  Printf.printf "%s\n" (String.make 66 '-');
  let all_results = ref [] in
  (* A case gets its counters when they are written or gated. *)
  let run_group cases =
    let measured =
      List.map
        (fun c ->
          let name, ns, fn = measure cfg c in
          let counted = json || List.mem_assoc name baselines in
          (name, ns, if counted then counters_of fn else []))
        (select cases)
    in
    all_results := !all_results @ measured;
    measured
  in
  if json then begin
    let t1 = run_group (table1_cases ~quick) in
    let t2 = run_group (table2_cases ~quick) in
    let tp = run_group (paths_cases ~quick) in
    let teco = run_group (eco_cases ~quick) in
    (* A quick subset never replaces the full baselines. *)
    let file n = sprintf "BENCH_table%d%s.json" n (if quick then ".quick" else "") in
    write_json (file 1) (json_of_results ~quick (t1 @ tp @ teco));
    write_json (file 2) (json_of_results ~quick t2)
  end
  else begin
    ignore (run_group (table1_cases ~quick));
    ignore (run_group (table2_cases ~quick));
    ignore (run_group (paths_cases ~quick));
    ignore (run_group (eco_cases ~quick));
    ignore (run_group fig2_cases);
    ignore (run_group application_cases);
    ignore (run_group fuzz_cases);
    ignore (run_group ablation_cases);
    ignore (run_group extension_cases);
    ignore (run_group substrate_cases)
  end;
  (* EMASK_OBS=1 turns the run into a profiling session: the aggregated
     instrumentation over every measured iteration goes to stderr. Off
     by default so probes cost one dead branch per call site. *)
  if Obs.on () then Obs_report.print stderr;
  (* EMASK_LEDGER: one record per measured case, so `emask report
     --against BENCH_table1.json` can place today's numbers on the
     committed perf trajectory. *)
  if Obs_ledger.enabled () then
    List.iter
      (fun (name, ns, _) ->
        Obs_ledger.note "case" (Obs_json.String name);
        Obs_ledger.note "ns_per_run" (Obs_json.Float ns);
        Obs_ledger.append ~cmd:"bench" ())
      !all_results;
  if baselines <> [] && not (check_regressions ~baselines !all_results) then 1 else 0

let () =
  let open Cmdliner in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Measure table1 and table2 and write the BENCH_*.json baselines \
             (BENCH_*.quick.json with $(b,--quick)).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Two small circuits per table.")
  in
  let against =
    Arg.(
      value & opt_all file []
      & info [ "against" ] ~docv:"FILE"
          ~doc:
            "Baseline BENCH_*.json (repeatable); exit 1 when a case's \
             counters drift (all but the -jobs4 twins) or its time \
             regresses more than 3x.")
  in
  let filter =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SUBSTRING" ~doc:"Run only the cases whose name contains it.")
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "bench" ~doc:"Benchmark the cost of regenerating each result")
          Term.(const run $ json $ quick $ against $ filter)))
