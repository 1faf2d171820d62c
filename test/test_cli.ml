(* End-to-end tests of the emask, table1 and table2 executables: option
   validation (the --theta, --jobs and count converters reject bad
   values the same way; the table binaries reject unknown flags), the
   paths subcommand's contract with CI (final "verdicts:" line, zero
   Unknown on the examples), and byte-identical output across --jobs. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let emask =
  match Sys.getenv_opt "EMASK" with
  | Some path -> path
  | None -> Filename.concat ".." (Filename.concat "bin" "emask.exe")

let table1 = Filename.concat ".." (Filename.concat "bin" "table1.exe")
let table2 = Filename.concat ".." (Filename.concat "bin" "table2.exe")

(* Run a binary, returning (exit code, stdout lines, stderr lines). *)
let run_exe exe args =
  let out = Filename.temp_file "emask_out" ".txt" in
  let err = Filename.temp_file "emask_err" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code =
    match Sys.command cmd with c -> c
  in
  let slurp f =
    let ic = open_in f in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let lines = go [] in
    close_in ic;
    Sys.remove f;
    lines
  in
  (code, slurp out, slurp err)

let run args = run_exe emask args

let contains text needle =
  let n = String.length needle and len = String.length text in
  let rec go i = i + n <= len && (String.sub text i n = needle || go (i + 1)) in
  go 0

(* A rejected argument: the exit code of a bad --jobs, and a first
   stderr line naming the flag and the offending value. *)
let check_rejected ?(exe = emask) name args ~flag ~bad =
  let jobs_code, _, _ = run [ "paths"; "cmb"; "--jobs=0" ] in
  let code, out, err = run_exe exe args in
  check_int (name ^ " exits like --jobs 0") jobs_code code;
  check (name ^ " prints nothing on stdout") true (out = []);
  check (name ^ " diagnostic names the flag and value") true
    (match err with line :: _ -> contains line flag && contains line bad | [] -> false)

let fixture name = Filename.concat "fixtures" name
let example name = Filename.concat (Filename.concat ".." (Filename.concat "examples" "blif")) name

let test_theta_validation () =
  (* Bad --theta must fail exactly like bad --jobs: same exit code,
     one-line diagnostic naming the offending value. *)
  let jobs_code, _, jobs_err = run [ "protect"; fixture "allfalse.blif"; "--jobs=0" ] in
  check "bad --jobs rejected" true (jobs_code <> 0);
  List.iter
    (fun bad ->
      let code, _, err = run [ "protect"; fixture "allfalse.blif"; "--theta=" ^ bad ] in
      check_int (Printf.sprintf "--theta %s exits like --jobs 0" bad) jobs_code code;
      check_int
        (Printf.sprintf "--theta %s stderr shape matches --jobs" bad)
        (List.length jobs_err) (List.length err);
      check
        (Printf.sprintf "--theta %s first line is the full diagnostic" bad)
        true
        (match err with
        | line :: _ ->
            let has needle =
              let n = String.length needle and len = String.length line in
              let rec go i = i + n <= len && (String.sub line i n = needle || go (i + 1)) in
              go 0
            in
            has "THETA" && has bad
        | [] -> false))
    [ "0"; "-0.5"; "1.5"; "2" ];
  (* Good values at the boundary still parse. *)
  let code, _, _ = run [ "protect"; fixture "allfalse.blif"; "--theta"; "1.0" ] in
  check_int "--theta 1.0 accepted" 0 code

let test_band_validation () =
  (* Bad --band must fail exactly like bad --jobs and bad --theta: same
     exit code, one-line diagnostic naming the offending value. A band
     of 0 classifies nothing and one above 1 silently clamps, so both
     are argument errors, not silent near-no-ops. *)
  let jobs_code, _, jobs_err = run [ "paths"; fixture "allfalse.blif"; "--jobs=0" ] in
  check "bad --jobs rejected" true (jobs_code <> 0);
  List.iter
    (fun bad ->
      let code, _, err = run [ "paths"; fixture "allfalse.blif"; "--band=" ^ bad ] in
      check_int (Printf.sprintf "--band %s exits like --jobs 0" bad) jobs_code code;
      check_int
        (Printf.sprintf "--band %s stderr shape matches --jobs" bad)
        (List.length jobs_err) (List.length err);
      check
        (Printf.sprintf "--band %s first line is the full diagnostic" bad)
        true
        (match err with
        | line :: _ ->
            let has needle =
              let n = String.length needle and len = String.length line in
              let rec go i = i + n <= len && (String.sub line i n = needle || go (i + 1)) in
              go 0
            in
            has "BAND" && has bad
        | [] -> false))
    [ "0"; "-0.5"; "1.5"; "abc" ];
  (* The closed boundary still parses. *)
  let code, _, _ = run [ "paths"; fixture "allfalse.blif"; "--band"; "1.0" ] in
  check_int "--band 1.0 accepted" 0 code

let test_last_validation () =
  (* emask report --last 0 (or negative) would silently report on
     nothing; it must fail exactly like bad --jobs: same exit code,
     one-line diagnostic naming the offending value. *)
  let jobs_code, _, jobs_err = run [ "paths"; fixture "allfalse.blif"; "--jobs=0" ] in
  check "bad --jobs rejected" true (jobs_code <> 0);
  List.iter
    (fun bad ->
      let code, _, err = run [ "report"; "--ledger"; "/dev/null"; "--last=" ^ bad ] in
      check_int (Printf.sprintf "--last %s exits like --jobs 0" bad) jobs_code code;
      check_int
        (Printf.sprintf "--last %s stderr shape matches --jobs" bad)
        (List.length jobs_err) (List.length err);
      check
        (Printf.sprintf "--last %s first line is the full diagnostic" bad)
        true
        (match err with
        | line :: _ ->
            let has needle =
              let n = String.length needle and len = String.length line in
              let rec go i = i + n <= len && (String.sub line i n = needle || go (i + 1)) in
              go 0
            in
            has "--last" && has bad
        | [] -> false))
    [ "0"; "-3"; "abc" ];
  (* The smallest sensible value still parses (an empty ledger is fine). *)
  let code, _, _ = run [ "report"; "--ledger"; "/dev/null"; "--last"; "1" ] in
  check_int "--last 1 accepted" 0 code

let test_count_validation () =
  (* A count of 0 or less has no meaning here (0 trials gives -nan
     error rates, 0 cycles a -nan window, 0 fuzz specimens a vacuous
     pass), so each is rejected like --jobs 0. *)
  List.iter
    (fun (args, flag, bad) ->
      check_rejected (String.concat " " args) args ~flag ~bad)
    [
      ([ "wearout"; "cmb"; "--trials"; "0" ], "--trials", "0");
      ([ "wearout"; "cmb"; "--trials=-3" ], "--trials", "-3");
      ([ "trace"; "cmb"; "--cycles"; "0" ], "--cycles", "0");
      ([ "trace"; "cmb"; "--buffer=-2" ], "--buffer", "-2");
      ([ "fuzz"; "--count"; "0" ], "--count", "0");
      ([ "fuzz"; "-n"; "0" ], "-n", "0");
    ]

let test_table_flags () =
  (* The table binaries share emask's argument parsing: unknown flags
     and bad values are errors, not silently ignored (no table runs). *)
  check_rejected ~exe:table1 "table1 --bogus" [ "--bogus" ] ~flag:"--bogus" ~bad:"";
  check_rejected ~exe:table2 "table2 --bogus" [ "--bogus" ] ~flag:"--bogus" ~bad:"";
  check_rejected ~exe:table2 "table2 --jobs 0" [ "--jobs"; "0" ] ~flag:"--jobs" ~bad:"0";
  check_rejected ~exe:table1 "table1 --max-nodes 0" [ "--max-nodes"; "0" ]
    ~flag:"--max-nodes" ~bad:"0";
  check_rejected ~exe:table1 "table1 --timeout=-1" [ "--timeout=-1" ]
    ~flag:"--timeout" ~bad:"-1"

let test_eco_smoke () =
  (* emask eco with an empty edit sequence is the identity analysis:
     nothing dirty, and --check confirms incremental = full. *)
  let edits = Filename.temp_file "emask_edits" ".eco" in
  let oc = open_out edits in
  output_string oc "# no edits\n";
  close_out oc;
  let code, out, _ =
    run [ "eco"; fixture "allfalse.blif"; "--edits"; edits; "--check" ]
  in
  Sys.remove edits;
  check_int "eco clean exit" 0 code;
  let text = String.concat "\n" out in
  let has needle =
    let n = String.length needle and len = String.length text in
    let rec go i = i + n <= len && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check "nothing dirty" true (has "dirty cone: 0 of");
  check "check passes" true (has "canonical forms identical")

let last_line = function [] -> "" | lines -> List.nth lines (List.length lines - 1)

let test_paths_examples () =
  (* The CI smoke contract: clean exit, final verdict tally, zero
     Unknown on every shipped example. *)
  List.iter
    (fun name ->
      let code, out, _ = run [ "paths"; example name ] in
      check_int (name ^ " clean exit") 0 code;
      let last = last_line out in
      check (name ^ " verdict line") true
        (String.length last >= 9 && String.sub last 0 9 = "verdicts:");
      check (name ^ " zero unknown") true
        (let suffix = ", 0 unknown" in
         let k = String.length suffix and n = String.length last in
         n >= k && String.sub last (n - k) k = suffix))
    [ "full_adder.blif"; "mux4.blif"; "parity8.blif" ]

let test_paths_jobs_identical () =
  let outputs =
    List.map
      (fun jobs ->
        let code, out, _ =
          run
            [ "paths"; example "parity8.blif"; "--band"; "0.4"; "--json";
              "--jobs"; string_of_int jobs ]
        in
        check_int (Printf.sprintf "jobs=%d clean exit" jobs) 0 code;
        String.concat "\n" out)
      [ 1; 2; 4; 8 ]
  in
  match outputs with
  | base :: rest ->
      List.iteri
        (fun i o -> check (Printf.sprintf "jobs run %d identical" (i + 2)) true (o = base))
        rest
  | [] -> Alcotest.fail "no outputs"

let test_paths_diags () =
  (* allfalse at a narrow band: STA004 + MASK005 surface, exit stays 0
     (warnings), and --fail-on warning raises it to 1. *)
  let code, out, _ = run [ "paths"; fixture "allfalse.blif"; "--band"; "0.2" ] in
  check_int "warnings exit 0" 0 code;
  let text = String.concat "\n" out in
  let has needle =
    let n = String.length needle and len = String.length text in
    let rec go i = i + n <= len && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check "STA004 reported" true (has "STA004");
  check "MASK005 reported" true (has "MASK005");
  let code, _, _ =
    run [ "paths"; fixture "allfalse.blif"; "--band"; "0.2"; "--fail-on"; "warning" ]
  in
  check_int "fail-on warning exits 1" 1 code

let () =
  Alcotest.run "cli"
    [
      ( "emask",
        [
          Alcotest.test_case "theta validation" `Quick test_theta_validation;
          Alcotest.test_case "band validation" `Quick test_band_validation;
          Alcotest.test_case "last validation" `Quick test_last_validation;
          Alcotest.test_case "count validation" `Quick test_count_validation;
          Alcotest.test_case "table flags" `Quick test_table_flags;
          Alcotest.test_case "eco smoke" `Quick test_eco_smoke;
          Alcotest.test_case "paths examples" `Quick test_paths_examples;
          Alcotest.test_case "paths jobs identical" `Quick test_paths_jobs_identical;
          Alcotest.test_case "paths diagnostics" `Quick test_paths_diags;
        ] );
    ]
