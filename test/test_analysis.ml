(* Tests for the static-analysis layer: the diagnostics engine, the
   per-pass behavior on hand-built pathological netlists (and the same
   netlists as committed fixtures), the STA and masking-contract
   checks, and the property that the benchmark suite and synthesized
   masking circuits lint free of errors. *)

open Analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let codes ds = List.map (fun d -> Diag.code_id d.Diag.code) (Diag.sort ds)
let has code ds = List.exists (fun d -> d.Diag.code = code) ds

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

(* ---------- diagnostics engine ---------- *)

let test_severity_and_exit () =
  let e = Diag.diag Diag.Cycle "c" in
  let w = Diag.diag Diag.Dead_cone "d" in
  check "cycle defaults to error" true (e.Diag.severity = Diag.Error);
  check "dead cone defaults to warning" true (w.Diag.severity = Diag.Warning);
  check_int "clean exits 0" 0 (Diag.exit_code []);
  check_int "errors exit 2" 2 (Diag.exit_code [ w; e ]);
  check_int "warnings exit 0 by default" 0 (Diag.exit_code [ w ]);
  check_int "warnings exit 1 under fail-on" 1
    (Diag.exit_code ~fail_on:Diag.Warning [ w ]);
  check_str "summary counts" "1 error, 1 warning" (Diag.summary [ e; w ]);
  check_str "summary clean" "clean" (Diag.summary []);
  (* Sorted presentation: errors first. *)
  check "sort puts errors first" true
    (match Diag.sort [ w; e ] with d :: _ -> d.Diag.code = Diag.Cycle | [] -> false)

let test_codes_stable () =
  (* The catalogue is part of the CLI contract; renumbering is a
     breaking change. *)
  let expect =
    [
      (Diag.Parse_error, "BLIF001");
      (Diag.Cycle, "NET001");
      (Diag.Undriven, "NET002");
      (Diag.Multi_driver, "NET003");
      (Diag.Unused_input, "NET004");
      (Diag.Dead_cone, "NET005");
      (Diag.Const_gate, "NET006");
      (Diag.No_outputs, "NET007");
      (Diag.Unmapped_gate, "MAP001");
      (Diag.Sta_delta, "STA001");
      (Diag.Sta_monotone, "STA002");
      (Diag.Sta_negative, "STA003");
      (Diag.Sta_false_path, "STA004");
      (Diag.Mask_intrusive, "MASK001");
      (Diag.Mask_slack, "MASK002");
      (Diag.Mask_mux, "MASK003");
      (Diag.Mask_coverage, "MASK004");
      (Diag.Mask_false_paths, "MASK005");
    ]
  in
  List.iter (fun (c, id) -> check_str id id (Diag.code_id c)) expect;
  check_int "catalogue covers every code" (List.length Diag.all_codes)
    (List.length expect)

let test_json_roundtrip () =
  let ds =
    [
      Diag.diag Diag.Cycle ~loc:{ Blif.file = Some "x.blif"; line = 7 } ~signal:"n3"
        "combinational cycle through {n3}";
      Diag.diag Diag.Unused_input ~signal:"pi0" "input unused";
    ]
  in
  let json = Obs_json.to_string (Diag.report_json ~name:"x.blif" ds) in
  match Obs_json.of_string json with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok v ->
    let member name = Obs_json.member name v in
    check "has diagnostics" true (member "diagnostics" <> None);
    (match member "summary" with
    | Some s ->
      check "one error" true (Obs_json.member "errors" s = Some (Obs_json.Int 1));
      check "one warning" true (Obs_json.member "warnings" s = Some (Obs_json.Int 1))
    | None -> Alcotest.fail "missing summary");
    (match member "diagnostics" with
    | Some (Obs_json.List (first :: _)) ->
      check "code serialized" true
        (Obs_json.member "code" first = Some (Obs_json.String "NET001"));
      check "line serialized" true
        (Obs_json.member "line" first = Some (Obs_json.Int 7))
    | _ -> Alcotest.fail "diagnostics not a list")

(* ---------- source-level passes on pathological netlists ---------- *)

let src_of text = Blif.parse_source text

let test_pass_cycle () =
  let src =
    src_of ".model c\n.inputs a\n.outputs z\n.names a x z\n11 1\n.names z y\n1 1\n.names y x\n1 1\n.end\n"
  in
  let ds = Passes.source_cycles src in
  check_int "one SCC" 1 (List.length ds);
  check "code" true (codes ds = [ "NET001" ]);
  let d = List.hd ds in
  check "members listed" true
    (contains d.Diag.message "x" && contains d.Diag.message "y"
    && contains d.Diag.message "z");
  (* A self-loop is also a cycle. *)
  let self = src_of ".model s\n.outputs z\n.names z z\n1 1\n.end\n" in
  check "self-loop detected" true (has Diag.Cycle (Passes.source_cycles self));
  (* The acyclic reference is clean. *)
  let ok = src_of ".model ok\n.inputs a\n.outputs z\n.names a z\n1 1\n.end\n" in
  check_int "acyclic clean" 0 (List.length (Passes.source_cycles ok))

let test_pass_undriven () =
  let src =
    src_of ".model u\n.inputs a b\n.outputs z w\n.names a ghost z\n11 1\n.end\n"
  in
  let ds = Passes.source_undriven src in
  check "ghost and w undriven" true (codes ds = [ "NET002"; "NET002" ]);
  check "signals named" true
    (List.sort compare (List.filter_map (fun d -> d.Diag.signal) ds)
    = [ "ghost"; "w" ])

let test_pass_multidriver () =
  let src =
    src_of
      ".model m\n.inputs a b\n.outputs z\n.names a z\n1 1\n.names b z\n0 1\n.names a b\n0 1\n.end\n"
  in
  let ds = Passes.source_multi_driver src in
  check "two multi-driver errors" true (codes ds = [ "NET003"; "NET003" ]);
  check "duplicate .names reported on z" true
    (List.exists (fun d -> d.Diag.signal = Some "z") ds);
  check "input redefinition reported on b" true
    (List.exists (fun d -> d.Diag.signal = Some "b") ds);
  (* The elaborator now rejects both defects too. *)
  check "elaborate rejects" true
    (try
       ignore (Blif.elaborate src);
       false
     with Blif.Parse_error _ -> true)

let test_pass_dead_cone () =
  let src =
    src_of
      ".model d\n.inputs a b c\n.outputs z\n.names a b z\n11 1\n.names c dead1\n0 1\n.names dead1 b dead2\n10 1\n.end\n"
  in
  let ds = Passes.source_structure src in
  check "two dead nodes + one unused input" true
    (codes ds = [ "NET004"; "NET005"; "NET005" ])

let test_pass_const_gate () =
  let net =
    Blif.parse
      ".model k\n.inputs a b\n.outputs z always\n.names a always\n1 1\n0 1\n.names always b z\n1- 1\n-1 1\n.end\n"
  in
  let ds = Passes.net_const_gates net in
  (* "always" is a tautology cover; z = always | b collapses once the
     constant is propagated. *)
  check "both constants found" true (codes ds = [ "NET006"; "NET006" ]);
  let const = Passes.net_constants net in
  let find name = Option.get (Network.find net name) in
  check "always = 1" true (const.(find "always") = Some true);
  check "z = 1" true (const.(find "z") = Some true);
  check "a unknown" true (const.(find "a") = None)

(* ---------- fixtures on disk (what CI and users run lint on) ---------- *)

(* Under `dune runtest` the cwd is the test directory (fixtures are
   declared deps); fall back to the source tree for `dune exec`. *)
let fixture name =
  let candidates = [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> Blif.read_source path
  | None -> Alcotest.failf "fixture %s not found" name

let test_fixtures () =
  let expect_codes name expected =
    let src = fixture name in
    let ds = Lint.source src in
    let ds =
      (* The constant-gate pass needs the elaborated network. *)
      if Diag.errors ds = [] then ds @ Passes.net_const_gates (Blif.elaborate src)
      else ds
    in
    List.iter
      (fun code ->
        check (name ^ " reports " ^ Diag.code_id code) true (has code ds))
      expected;
    (* Every file-based diagnostic carries a position in that file. *)
    List.iter
      (fun d ->
        match d.Diag.loc with
        | Some l -> check (name ^ " loc file") true (l.Blif.file <> None)
        | None -> ())
      ds
  in
  expect_codes "cycle.blif" [ Diag.Cycle ];
  expect_codes "undriven.blif" [ Diag.Undriven ];
  expect_codes "multidriver.blif" [ Diag.Multi_driver ];
  expect_codes "deadcone.blif" [ Diag.Dead_cone; Diag.Unused_input ];
  expect_codes "constgate.blif" [ Diag.Const_gate ]

let test_parser_locations () =
  let src = src_of ".model l\n.inputs a\n.outputs z\n\n.names a z\n1 1\n.end\n" in
  (match src.Blif.nodes with
  | [ n ] -> check_int "names line" 5 n.Blif.nloc.Blif.line
  | _ -> Alcotest.fail "expected one node");
  (match src.Blif.src_inputs with
  | [ (_, loc) ] -> check_int "inputs line" 2 loc.Blif.line
  | _ -> Alcotest.fail "expected one input");
  (* Elaboration errors carry positions. *)
  (try
     ignore (Blif.parse ".model e\n.inputs a\n.outputs z\n.names a z\n1 1\n.names a z\n0 1\n.end\n");
     Alcotest.fail "duplicate driver accepted"
   with Blif.Parse_error msg -> check "message has line" true (contains msg "line 6"))

(* ---------- STA consistency ---------- *)

let test_sta_consistency () =
  List.iter
    (fun name ->
      let mc = Mapper.map (Suite.load name) in
      check_int (name ^ " sta consistent") 0
        (List.length (Passes.sta_consistency mc));
      check_int (name ^ " fully mapped") 0
        (List.length (Passes.mapped_unmapped_gates mc)))
    [ "cmb"; "x2"; "C432" ]

(* ---------- suite-wide lint property ---------- *)

let test_suite_lints_error_free () =
  List.iter
    (fun entry ->
      let net = Suite.network entry in
      let ds = Lint.network net in
      check (entry.Suite.ename ^ " no lint errors") true (Diag.errors ds = []);
      check (entry.Suite.ename ^ " preflight clean") true (Lint.preflight net = []))
    Suite.all

(* The generator is known to leave advisory findings on two entries;
   the lint layer should keep reporting them (they are real), and every
   other entry should be fully clean. *)
let test_suite_known_warnings () =
  let dirty =
    List.filter_map
      (fun entry ->
        let ds = Lint.network (Suite.network entry) in
        if ds <> [] then Some entry.Suite.ename else None)
      Suite.all
  in
  check "only cmb and too_large carry warnings" true
    (List.sort compare dirty = [ "cmb"; "too_large" ])

(* ---------- synthesized masking circuits ---------- *)

let test_synthesis_lints_clean () =
  List.iter
    (fun name ->
      let m = Masking.Synthesis.synthesize (Suite.load name) in
      let contract = Contract.check m in
      check (name ^ " contract clean") true (contract = []);
      let combined = Lint.mapped m.Masking.Synthesis.combined in
      check (name ^ " combined error-free") true (Diag.errors combined = []);
      let masking = Lint.mapped m.Masking.Synthesis.masking in
      check (name ^ " masking error-free") true (Diag.errors masking = []))
    [ "cmb"; "x2"; "cu"; "C432" ]

(* A broken synthesis result, three ways: Σ widened to every pattern
   (Σ ⊄ e), the first critical output's prediction replaced by ¬y
   (e ⊄ (ỹ = y)), and an extra combined output the original lacks.
   Verify must report exactly the expected finding, and Contract must
   render each finding as one MASK001 / MASK004 diagnostic, in order. *)
let expect_findings what m expected =
  let fs = Masking.Verify.findings m in
  check (what ^ ": findings") true (fs = expected);
  check (what ^ ": check agrees") true
    ((Masking.Verify.check ~power_rounds:1 m).Masking.Verify.findings = fs);
  let rendered =
    List.filter
      (fun d -> d.Diag.code = Diag.Mask_intrusive || d.Diag.code = Diag.Mask_coverage)
      (Contract.check m)
  in
  check_int (what ^ ": one diagnostic per finding") (List.length fs)
    (List.length rendered);
  List.iter2
    (fun f d ->
      let code, name =
        match f with
        | Masking.Verify.Absent n | Intrusive n -> (Diag.Mask_intrusive, n)
        | Uncovered n | Unsound n -> (Diag.Mask_coverage, n)
      in
      check (what ^ ": code") true (d.Diag.code = code);
      check (what ^ ": signal") true (d.Diag.signal = Some name))
    fs rendered

let test_broken_contract () =
  List.iter
    (fun circuit ->
      let synth () = Masking.Synthesis.synthesize (Suite.load circuit) in
      let tamper_first m f =
        match m.Masking.Synthesis.per_output with
        | po :: rest -> ({ m with per_output = f po :: rest }, po.Masking.Synthesis.name)
        | [] -> Alcotest.fail (circuit ^ " has no critical output")
      in
      let m, name = tamper_first (synth ()) (fun po -> { po with sigma = Bdd.btrue }) in
      expect_findings (circuit ^ " sigma := 1") m [ Masking.Verify.Uncovered name ];
      let m = synth () in
      let m, name =
        tamper_first m (fun po ->
            let not_y =
              Mapped.add_gate m.Masking.Synthesis.combined Cell.inv
                [| po.Masking.Synthesis.y_combined |]
            in
            { po with ytilde_combined = not_y })
      in
      expect_findings (circuit ^ " ytilde := not y") m [ Masking.Verify.Unsound name ];
      let m = synth () in
      let po = List.hd m.Masking.Synthesis.per_output in
      Mapped.mark_output m.Masking.Synthesis.combined ~name:"extra"
        po.Masking.Synthesis.y_combined;
      expect_findings (circuit ^ " extra output") m [ Masking.Verify.Absent "extra" ])
    [ "C432"; "x2" ]

(* The slack pass against a tightened margin that C432's masking
   circuit cannot meet. *)
let test_contract_slack_margin () =
  let m = Masking.Synthesis.synthesize (Suite.load "C432") in
  check "paper margin met" true (Contract.check_slack m = []);
  let ds = Contract.check_slack ~margin:0.999 m in
  check "impossible margin violated" true (has Diag.Mask_slack ds)

(* The README's diagnostic-catalogue table must stay in lockstep with
   Analysis.Diag: one row per code, with the id, name, default
   severity, IR level and meaning the library reports. *)
let test_readme_catalogue () =
  let readme =
    let ic = open_in "../README.md" in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let rows =
    String.split_on_char '\n' readme
    |> List.filter_map (fun line ->
           match String.split_on_char '|' line with
           | [ ""; code; name; sev; level; meaning; "" ]
             when String.length (String.trim code) > 2
                  && (String.trim code).[0] = '`' ->
               let strip s = String.trim s in
               let unquote s =
                 let s = strip s in
                 String.sub s 1 (String.length s - 2)
               in
               Some (unquote code, strip name, strip sev, strip level, strip meaning)
           | _ -> None)
  in
  check_int "one table row per catalogue code" (List.length Diag.all_codes)
    (List.length rows);
  List.iter2
    (fun c (id, name, sev, level, meaning) ->
      check_str (id ^ " id") (Diag.code_id c) id;
      check_str (id ^ " name") (Diag.code_name c) name;
      check_str (id ^ " severity")
        (Diag.severity_to_string (Diag.default_severity c))
        sev;
      check_str (id ^ " level") (Diag.code_level c) level;
      check_str (id ^ " meaning") (Diag.code_meaning c) meaning)
    Diag.all_codes rows;
  (* The incremental-recompute section must document the emask eco CLI
     (the edit-sequence flag and the full-vs-incremental cross-check). *)
  let has needle =
    let n = String.length needle and len = String.length readme in
    let rec go i = i + n <= len && (String.sub readme i n = needle || go (i + 1)) in
    go 0
  in
  check "incremental recompute section" true
    (has "## Incremental recompute (`emask eco`)");
  check "eco --edits documented" true (has "--edits");
  check "eco --check documented" true (has "--check");
  check "eco-equal oracle named" true (has "`eco-equal`");
  (* The serving section must document the daemon, its byte-identity
     contract with the one-shot CLI, and the saturation diagnostics. *)
  check "serving section" true (has "## Serving (`emask serve`)");
  check "byte-identity contract stated" true (has "byte-identical output");
  check "client subcommand documented" true (has "emask client");
  check "metrics endpoint documented" true (has "/metrics");
  check "queue rejection code documented" true (has "QUEUE001");
  check "cache flag documented" true (has "--cache-mb")

let () =
  Alcotest.run "analysis"
    [
      ( "diag",
        [
          Alcotest.test_case "severity and exit codes" `Quick test_severity_and_exit;
          Alcotest.test_case "stable code catalogue" `Quick test_codes_stable;
          Alcotest.test_case "readme catalogue" `Quick test_readme_catalogue;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        ] );
      ( "passes",
        [
          Alcotest.test_case "cycle" `Quick test_pass_cycle;
          Alcotest.test_case "undriven" `Quick test_pass_undriven;
          Alcotest.test_case "multi-driver" `Quick test_pass_multidriver;
          Alcotest.test_case "dead cone" `Quick test_pass_dead_cone;
          Alcotest.test_case "const gate" `Quick test_pass_const_gate;
          Alcotest.test_case "fixtures" `Quick test_fixtures;
          Alcotest.test_case "parser locations" `Quick test_parser_locations;
          Alcotest.test_case "sta consistency" `Quick test_sta_consistency;
        ] );
      ( "properties",
        [
          Alcotest.test_case "suite error-free" `Slow test_suite_lints_error_free;
          Alcotest.test_case "known warnings" `Slow test_suite_known_warnings;
          Alcotest.test_case "synthesis clean" `Slow test_synthesis_lints_clean;
          Alcotest.test_case "slack margin" `Slow test_contract_slack_margin;
          Alcotest.test_case "broken contract" `Quick test_broken_contract;
        ] );
    ]
