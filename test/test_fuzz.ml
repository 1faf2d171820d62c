(* Tier-1 coverage for the fuzzing subsystem: RNG reproducibility, the
   specimen generator/mutator, the greedy shrinker, the oracle
   catalogue on a fixed-seed corpus, the Spcf.Parallel determinism
   property, and the Generator edge cases the fuzzer uncovered (pinned
   against committed fixtures). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Fuzz.Rng ---------- *)

(* child i is a pure function of (root seed, i): consuming the parent
   stream must not perturb any child, and the same (seed, i) always
   yields the same stream. *)
let test_rng_child_pure () =
  let draws t = Array.init 16 (fun _ -> Fuzz.Rng.int t 1_000_000) in
  let fresh = Fuzz.Rng.create ~seed:1234 in
  let expected = Array.init 4 (fun i -> draws (Fuzz.Rng.child fresh i)) in
  let consumed = Fuzz.Rng.create ~seed:1234 in
  for _ = 1 to 100 do
    ignore (Fuzz.Rng.int consumed 7)
  done;
  for i = 0 to 3 do
    check "child stream unaffected by parent consumption" true
      (draws (Fuzz.Rng.child consumed i) = expected.(i))
  done;
  check "distinct children have distinct streams" false (expected.(0) = expected.(1));
  check_int "seed is preserved" 1234 (Fuzz.Rng.seed (Fuzz.Rng.child fresh 3))

let test_rng_determinism () =
  let net_of seed i =
    let rng = Fuzz.Rng.child (Fuzz.Rng.create ~seed) i in
    Blif.to_string (Fuzz.Gen.network (Fuzz.Gen.generate rng))
  in
  check "same (seed, index) replays the same specimen" true (net_of 7 5 = net_of 7 5);
  check "different indices differ" false (net_of 7 5 = net_of 7 6)

(* ---------- Fuzz.Gen ---------- *)

let spec_ok (s : Fuzz.Gen.spec) =
  s.Fuzz.Gen.n_pi >= 1
  && Array.length s.Fuzz.Gen.outputs >= 1
  && Array.for_all
       (fun o -> o >= 0 && o < s.Fuzz.Gen.n_pi + Array.length s.Fuzz.Gen.nodes)
       s.Fuzz.Gen.outputs

let test_gen_valid () =
  let root = Fuzz.Rng.create ~seed:99 in
  for i = 0 to 49 do
    let rng = Fuzz.Rng.child root i in
    let spec = Fuzz.Gen.generate rng in
    check "spec invariants hold" true (spec_ok spec);
    let net = Fuzz.Gen.network spec in
    check "lowered network has outputs" true (Array.length (Network.outputs net) >= 1);
    (* The lowering must produce an evaluable network. *)
    let env = Array.make (Array.length (Network.inputs net)) false in
    ignore (Network.eval net env)
  done

let test_mutate_valid () =
  let root = Fuzz.Rng.create ~seed:5 in
  let spec = ref (Fuzz.Gen.generate (Fuzz.Rng.child root 0)) in
  for i = 1 to 60 do
    spec := Fuzz.Gen.mutate (Fuzz.Rng.child root i) !spec;
    check "mutated spec invariants hold" true (spec_ok !spec);
    ignore (Fuzz.Gen.network !spec)
  done

(* ---------- Fuzz.Shrink ---------- *)

(* Synthetic monotone predicates with a known minimal form: the greedy
   shrinker must reach it exactly and never return a passing spec. *)
let big_spec () =
  let rng = Fuzz.Rng.create ~seed:4242 in
  let rec grow spec n = if n = 0 then spec else grow (Fuzz.Gen.mutate rng spec) (n - 1) in
  grow (Fuzz.Gen.generate rng) 10

let test_shrink_gate_count () =
  let spec = big_spec () in
  let fails s = Fuzz.Gen.num_gates s >= 3 in
  Alcotest.(check bool) "input fails" true (fails spec);
  let minimal, evals = Fuzz.Shrink.shrink ~fails spec in
  check_int "shrunk to exactly 3 gates" 3 (Fuzz.Gen.num_gates minimal);
  check "minimal spec still fails" true (fails minimal);
  check "eval budget respected" true (evals <= 2000)

let test_shrink_output_count () =
  let spec = big_spec () in
  let fails s = Array.length s.Fuzz.Gen.outputs >= 2 in
  let spec =
    if fails spec then spec
    else { spec with Fuzz.Gen.outputs = Array.append spec.Fuzz.Gen.outputs [| 0 |] }
  in
  let minimal, _ = Fuzz.Shrink.shrink ~fails spec in
  check_int "shrunk to exactly 2 outputs" 2 (Array.length minimal.Fuzz.Gen.outputs);
  check_int "no gates survive an output-only predicate" 0 (Fuzz.Gen.num_gates minimal)

let test_shrink_budget () =
  let spec = big_spec () in
  let evals_seen = ref 0 in
  let fails _ =
    incr evals_seen;
    true
  in
  let _, evals = Fuzz.Shrink.shrink ~max_evals:25 ~fails spec in
  check "max_evals caps predicate calls" true (evals <= 25)

(* ---------- Fuzz.Oracle catalogue ---------- *)

let test_oracle_catalogue () =
  let names = Fuzz.Oracle.names in
  check_int "eight oracles" 8 (List.length names);
  check "names are unique" true
    (List.length (List.sort_uniq compare names) = List.length names);
  List.iter
    (fun n ->
      match Fuzz.Oracle.find n with
      | Some o -> check ("find " ^ n) true (o.Fuzz.Oracle.name = n)
      | None -> Alcotest.failf "oracle %s not found by name" n)
    names;
  check "unknown name yields None" true (Fuzz.Oracle.find "no-such-oracle" = None)

let test_oracle_run_catches () =
  let boom =
    {
      Fuzz.Oracle.name = "boom";
      describe = "always raises";
      check = (fun ~rng:_ ~budget:_ _ -> failwith "kaboom");
    }
  in
  let net = Fuzz.Gen.network (Fuzz.Gen.generate (Fuzz.Rng.create ~seed:1)) in
  match Fuzz.Oracle.run boom ~rng:(Util.Rng.create 1) net with
  | Fuzz.Oracle.Fail msg -> check "exception message captured" true (msg <> "")
  | _ -> Alcotest.fail "escaping exception must convert to Fail"

(* The acceptance gate: a fixed-seed corpus through every oracle with
   shrinking enabled must come back clean. Kept small enough for tier-1
   (the CI fuzz-smoke job runs the larger budget). *)
let test_fixed_seed_corpus () =
  let summary =
    Fuzz.Driver.run ~log:(fun _ -> ())
      { Fuzz.Driver.default_config with seed = 42; count = 40 }
  in
  check_int "all samples ran" 40 summary.Fuzz.Driver.samples;
  check "oracles actually executed" true (summary.Fuzz.Driver.checks >= 40 * 6);
  (match summary.Fuzz.Driver.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "oracle %s failed at seed 42 index %d: %s" f.Fuzz.Driver.oracle
      f.Fuzz.Driver.index f.Fuzz.Driver.message);
  check "elapsed is sane" true (summary.Fuzz.Driver.elapsed >= 0.)

let test_repro_blif_parses () =
  let spec = Fuzz.Gen.generate (Fuzz.Rng.create ~seed:77) in
  let text =
    Fuzz.Driver.repro_blif ~oracle:"spcf-equal" ~seed:77 ~index:0
      ~message:"synthetic repro header" spec
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check "header names the oracle" true
    (String.length text > 0 && text.[0] = '#' && contains text "spcf-equal");
  (* The header pins the environment knobs the failure was found under;
     with none of them set, every knob reads "unset". *)
  check "header records the environment" true (contains text "# env: EMASK_JOBS=");
  List.iter
    (fun v -> check (v ^ " pinned in header") true (contains text v))
    [
      "EMASK_JOBS"; "EMASK_BUDGET_TIMEOUT"; "EMASK_BUDGET_MAX_NODES";
      "EMASK_BUDGET_MAX_OPS"; "EMASK_OBS";
    ];
  let reparsed = Blif.parse text in
  check "repro text parses back to an equivalent network" true
    (Network.equivalent (Fuzz.Gen.network spec) reparsed)

(* ---------- Spcf.Parallel determinism (satellite) ---------- *)

(* jobs ∈ {1,2,4,8} must produce byte-identical exported SPCF DAGs on
   every specimen. Each run builds its own context, so the comparison
   is the canonical postorder export, which cannot depend on the
   manager or the worker count. *)
let test_parallel_determinism () =
  let root = Fuzz.Rng.create ~seed:2024 in
  let circuits = 100 in
  for i = 0 to circuits - 1 do
    let spec = Fuzz.Gen.generate (Fuzz.Rng.child root i) in
    let mc = Mapper.map (Fuzz.Gen.network spec) in
    let dags jobs =
      let ctx = Spcf.Ctx.create mc in
      let target = Spcf.Ctx.target_of_theta ctx 0.9 in
      let r = Spcf.Parallel.short_path ~jobs ctx ~target in
      List.map
        (fun (name, _, sigma) -> (name, Spcf.Parallel.export ctx.Spcf.Ctx.man sigma))
        r.Spcf.Ctx.outputs
    in
    let reference = dags 1 in
    List.iter
      (fun jobs ->
        if dags jobs <> reference then
          Alcotest.failf "circuit %d: jobs=%d exported DAGs differ from jobs=1" i jobs)
      [ 2; 4; 8 ]
  done

(* Clearing the BDD operation caches between per-output computations is
   semantically invisible: caches only memoize, they never define. *)
let test_clear_caches_stable () =
  let root = Fuzz.Rng.create ~seed:31337 in
  for i = 0 to 19 do
    let net = Fuzz.Gen.network (Fuzz.Gen.generate (Fuzz.Rng.child root i)) in
    let ctx = Spcf.Ctx.create (Mapper.map net) in
    let man = ctx.Spcf.Ctx.man in
    let target = Spcf.Ctx.target_of_theta ctx 0.9 in
    let target_units = Spcf.Ctx.units_of_target target in
    let outs = Sta.critical_outputs ctx.Spcf.Ctx.sta ~target in
    let batch =
      Spcf.Exact.sigmas ctx ~opts:Spcf.Exact.proposed_options ~outputs:outs
        ~target_units
    in
    let interrupted =
      Array.to_list outs
      |> List.concat_map (fun out ->
             Bdd.clear_caches man;
             Spcf.Exact.sigmas ctx ~opts:Spcf.Exact.proposed_options
               ~outputs:[| out |] ~target_units)
    in
    List.iter2
      (fun (n1, _, s1) (n2, _, s2) ->
        if n1 <> n2 || s1 <> s2 then
          Alcotest.failf "circuit %d: clear_caches changed SPCF of %s" i n1)
      batch interrupted
  done

(* ---------- Generator edge cases (satellite) ---------- *)

let test_generator_rejects () =
  let expect_invalid label p =
    match ignore (Generator.generate p) with
    | () -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "n_pi = 0" { Generator.default_params with name = "z"; n_pi = 0 };
  expect_invalid "n_pi < 0" { Generator.default_params with name = "z"; n_pi = -3 };
  expect_invalid "n_po < 0" { Generator.default_params with name = "z"; n_po = -1 };
  expect_invalid "max_support = 0"
    { Generator.default_params with name = "z"; max_support = 0 }

let test_generator_edge_shapes () =
  (* More outputs than the logic can supply: the surplus becomes wire
     copies, and the count is still exactly n_po. *)
  let wide =
    Generator.generate
      { Generator.default_params with name = "w"; n_pi = 2; n_po = 9; n_nodes = 3 }
  in
  check_int "n_po honored when it exceeds reachable logic" 9
    (Array.length (Network.outputs wide));
  (* Zero (or negative) gate budget yields the minimal skeleton, still
     with the requested interface. *)
  let empty =
    Generator.generate { Generator.default_params with name = "e"; n_nodes = 0; n_po = 2 }
  in
  check_int "zero-gate params keep the requested outputs" 2
    (Array.length (Network.outputs empty));
  check "zero-gate params still synthesize a skeleton" true (Network.num_nodes empty > 0);
  let neg =
    Generator.generate { Generator.default_params with name = "n"; n_nodes = -5; n_po = 1 }
  in
  check_int "negative gate budget behaves like zero" 1 (Array.length (Network.outputs neg));
  (* n_po = 0 is legal: a network with no observed outputs. *)
  let blind =
    Generator.generate { Generator.default_params with name = "b"; n_po = 0; n_nodes = 4 }
  in
  check_int "n_po = 0 yields no outputs" 0 (Array.length (Network.outputs blind))

(* The committed fixtures pin the exact netlists the edge parameters
   produce; any drift in the generator shows up as a byte diff. *)
let fixture_text name =
  let candidates = [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path ->
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  | None -> Alcotest.failf "fixture %s not found" name

let test_generator_fixtures () =
  let pin fixture p =
    let expected = fixture_text (fixture ^ ".blif") in
    let got = Blif.to_string ~model:fixture (Generator.generate p) in
    if got <> expected then
      Alcotest.failf "generator drifted from fixture %s.blif" fixture
  in
  pin "gen_edge_npo"
    { Generator.default_params with name = "gen_edge_npo"; n_pi = 2; n_po = 9; n_nodes = 3 };
  pin "gen_edge_zero_gates"
    { Generator.default_params with name = "gen_edge_zero_gates"; n_nodes = 0; n_po = 2 };
  pin "gen_edge_one_pi"
    {
      Generator.default_params with
      name = "gen_edge_one_pi";
      n_pi = 1;
      n_po = 1;
      n_nodes = 2;
    }

let () =
  Alcotest.run "fuzz"
    [
      ( "rng",
        [
          Alcotest.test_case "child-pure" `Quick test_rng_child_pure;
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
        ] );
      ( "gen",
        [
          Alcotest.test_case "valid-specimens" `Quick test_gen_valid;
          Alcotest.test_case "mutate-valid" `Quick test_mutate_valid;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "gate-count" `Quick test_shrink_gate_count;
          Alcotest.test_case "output-count" `Quick test_shrink_output_count;
          Alcotest.test_case "eval-budget" `Quick test_shrink_budget;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "catalogue" `Quick test_oracle_catalogue;
          Alcotest.test_case "run-catches-exceptions" `Quick test_oracle_run_catches;
          Alcotest.test_case "fixed-seed-corpus" `Slow test_fixed_seed_corpus;
          Alcotest.test_case "repro-blif" `Quick test_repro_blif_parses;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs-determinism" `Slow test_parallel_determinism;
          Alcotest.test_case "clear-caches-stable" `Quick test_clear_caches_stable;
        ] );
      ( "generator-edges",
        [
          Alcotest.test_case "invalid-params" `Quick test_generator_rejects;
          Alcotest.test_case "edge-shapes" `Quick test_generator_edge_shapes;
          Alcotest.test_case "fixtures" `Quick test_generator_fixtures;
        ] );
    ]
