(* Regenerates the paper's Table 2: area and power overhead for 100%
   masking of timing errors on speed-paths within 10% of the critical
   path delay, over the full 20-circuit suite. *)

let line = String.make 112 '-'

(* `--stats-json FILE` writes a per-circuit JSON sidecar of the
   synthesis/verification internals (spans, counters, histograms).
   `--trace FILE` writes a Chrome/Perfetto timeline of the whole suite
   run; combining both truncates the timeline, because the sidecar's
   per-circuit registry resets also clear the trace buffer. `--jobs N`
   fans the SPCF stage of each synthesis out over N domains; the table
   is byte-identical for every N. `--timeout SEC` / `--max-nodes N`
   make each synthesis degrade down the governed ladder (exact,
   node-based, always-on) instead of running away; degraded circuits
   are named in a note after the table. *)
let run sidecar trace jobs budget =
  if sidecar <> None then Obs.set_enabled true;
  if trace <> None then begin
    Obs.set_enabled true;
    Obs.set_trace_enabled true
  end;
  (* Registry resets isolate per-circuit sidecar attribution only; a
     plain --trace or EMASK_OBS run keeps one registry so the timeline
     survives to the end. *)
  let collect = sidecar <> None in
  let all_stats = ref [] in
  Printf.printf
    "Table 2: area and power overhead for 100%% masking of timing errors on speed-paths\n";
  Printf.printf "%s\n" line;
  Printf.printf "%-18s %-9s %-6s %-5s %-12s %-7s %-7s %-7s %-9s %-6s\n" "Circuit"
    "I/O" "Gates" "Crit" "Critical" "Slack" "Area" "Power" "Coverage" "OK";
  Printf.printf "%-18s %-9s %-6s %-5s %-12s %-7s %-7s %-7s %-9s %-6s\n" "" "" ""
    "POs" "minterms" "(%)" "(%)" "(%)" "(%)" "";
  Printf.printf "%s\n" line;
  let slacks = ref [] and areas = ref [] and powers = ref [] in
  let degraded = ref [] in
  List.iter
    (fun entry ->
      let net = Suite.network entry in
      (* Pre-flight: reject a malformed circuit with a one-line summary
         instead of failing deep inside synthesis. *)
      Analysis.Lint.gate_check ~what:entry.Suite.ename (Analysis.Lint.preflight net);
      if collect then Obs.reset ();
      let options = { Masking.Synthesis.default_options with jobs; budget } in
      let m = Masking.Synthesis.synthesize ~options net in
      if m.Masking.Synthesis.tier <> Spcf.Governed.Exact then
        degraded :=
          (entry.Suite.ename, Spcf.Governed.tier_to_string m.Masking.Synthesis.tier)
          :: !degraded;
      let r = Masking.Verify.check m in
      if collect then
        all_stats := (entry.Suite.ename, Obs_json.snapshot ()) :: !all_stats;
      let ok = r.Masking.Verify.findings = [] in
      slacks := r.Masking.Verify.slack_pct :: !slacks;
      areas := r.Masking.Verify.area_overhead_pct :: !areas;
      powers := r.Masking.Verify.power_overhead_pct :: !powers;
      Printf.printf "%-18s %-9s %-6d %-5d %-12s %-7.1f %-7.1f %-7.1f %-9.1f %-6b\n%!"
        entry.Suite.ename
        (Printf.sprintf "%d/%d"
           (Array.length (Network.inputs net))
           (Array.length (Network.outputs net)))
        (Mapped.gate_count m.Masking.Synthesis.original)
        r.Masking.Verify.critical_outputs
        (Extfloat.to_string r.Masking.Verify.critical_minterms)
        r.Masking.Verify.slack_pct r.Masking.Verify.area_overhead_pct
        r.Masking.Verify.power_overhead_pct r.Masking.Verify.coverage_pct ok)
    Suite.all;
  Printf.printf "%s\n" line;
  let avg l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  Printf.printf "%-18s %-9s %-6s %-5s %-12s %-7.1f %-7.1f %-7.1f\n" "Average" ""
    "" "" "" (avg !slacks) (avg !areas) (avg !powers);
  Printf.printf
    "\nShape targets (paper): 100%% coverage on every circuit; average slack 57%%;\n\
     average area (power) overhead 18%% (16%%); ~20%% of outputs critical.\n";
  if !degraded <> [] then
    Printf.printf "budget: degraded circuits: %s\n"
      (String.concat ", "
         (List.rev_map (fun (n, t) -> Printf.sprintf "%s (%s)" n t) !degraded));
  (match trace with
  | Some path ->
    Obs_trace.write_file path;
    Printf.printf "trace written to %s\n" path
  | None -> ());
  match sidecar with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Obs_json.to_channel oc
      (Obs_json.Obj [ ("table2", Obs_json.Obj (List.rev !all_stats)) ]);
    output_char oc '\n';
    close_out oc;
    Printf.printf "per-circuit stats written to %s\n" path

let () =
  let open Cmdliner in
  Cli.main
    (Cmd.v
       (Cmd.info "table2" ~doc:"Regenerate the paper's Table 2 (masking area and power overhead)")
       Term.(const run $ Cli.stats_json $ Cli.trace $ Cli.jobs $ Cli.budget))
