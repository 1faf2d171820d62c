(* Tests for the resource-governance layer: structured exhaustion from
   the BDD core, the spec/instance split, environment parsing, the
   governed SPCF ladder, the synthesis fallback tiers, and the
   constant-only Netopt regression the fuzzer exposed. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ---------- specs: merge, environment, instances ---------- *)

let test_spec_merge () =
  let a =
    { Budget.timeout = Some 1.; max_nodes = None; max_ops = Some 5;
      cancel_with = None }
  in
  let b =
    { Budget.timeout = Some 9.; max_nodes = Some 7; max_ops = None;
      cancel_with = None }
  in
  let m = Budget.merge a b in
  check "timeout from a" true (m.Budget.timeout = Some 1.);
  check "nodes fill from b" true (m.Budget.max_nodes = Some 7);
  check "ops from a" true (m.Budget.max_ops = Some 5);
  check "no_limits is no_limits" true (Budget.is_no_limits Budget.no_limits);
  check "merged has limits" false (Budget.is_no_limits m);
  check "instantiate no_limits is unlimited" true
    (Budget.instantiate Budget.no_limits == Budget.unlimited)

let test_of_env () =
  let set k v = Unix.putenv k v in
  set "EMASK_BUDGET_TIMEOUT" "2.5";
  set "EMASK_BUDGET_MAX_NODES" "100";
  set "EMASK_BUDGET_MAX_OPS" "";
  let s = Budget.of_env () in
  check "timeout read" true (s.Budget.timeout = Some 2.5);
  check "nodes read" true (s.Budget.max_nodes = Some 100);
  check "empty is unset" true (s.Budget.max_ops = None);
  List.iter
    (fun bad ->
      set "EMASK_BUDGET_MAX_NODES" bad;
      check ("reject " ^ bad) true (raises_invalid Budget.of_env))
    [ "zero"; "0"; "-3"; "1.5" ];
  set "EMASK_BUDGET_TIMEOUT" "nan";
  set "EMASK_BUDGET_MAX_NODES" "";
  check "reject nan timeout" true (raises_invalid Budget.of_env);
  set "EMASK_BUDGET_TIMEOUT" "";
  check "all unset is no_limits" true (Budget.is_no_limits (Budget.of_env ()))

let test_jobs_env () =
  let set v = Unix.putenv "EMASK_JOBS" v in
  set "3";
  check_int "valid value" 3 (Spcf.Parallel.default_jobs ());
  check_int "valid value wins over the hardware default" 3 (Spcf.Parallel.auto_jobs ());
  set "";
  check_int "empty means sequential" 1 (Spcf.Parallel.default_jobs ());
  check_int "empty means the hardware default"
    (max 1 (min 8 (Domain.recommended_domain_count ())))
    (Spcf.Parallel.auto_jobs ());
  List.iter
    (fun bad ->
      set bad;
      check ("reject " ^ bad) true (raises_invalid Spcf.Parallel.default_jobs);
      check ("auto rejects " ^ bad) true
        (raises_invalid (fun () -> Spcf.Parallel.auto_jobs ())))
    [ "abc"; "0"; "-4" ];
  set ""

let test_cancel_and_renew () =
  let b = Budget.create ~max_ops:1_000_000 () in
  check "fresh not exhausted" true (Budget.exhausted b = None);
  let w = Budget.for_worker b in
  Budget.cancel w;
  check "worker cancel reaches parent" true (Budget.cancelled b);
  check "poll reports cancellation" true (Budget.exhausted b = Some Budget.Cancelled);
  let r = Budget.renew b in
  check "renew clears the cancel flag" false (Budget.cancelled r);
  check "unlimited never exhausts" true (Budget.exhausted Budget.unlimited = None);
  Budget.tick Budget.unlimited (* free and must not raise *)

(* ---------- structured exhaustion from the BDD core ---------- *)

let xor_chain man n =
  let acc = ref (Bdd.var man 0) in
  for v = 1 to n - 1 do
    acc := Bdd.bxor man !acc (Bdd.var man v)
  done;
  !acc

let test_bdd_node_quota () =
  let man = Bdd.create ~nvars:16 () in
  Bdd.set_budget man (Budget.create ~max_nodes:8 ());
  check "node quota raises Nodes" true
    (match xor_chain man 16 with
    | exception Budget.Budget_exceeded Budget.Nodes -> true
    | _ -> false)

let test_bdd_op_quota () =
  let man = Bdd.create ~nvars:16 () in
  Bdd.set_budget man (Budget.create ~max_ops:10 ());
  check "op quota raises Ops" true
    (match xor_chain man 16 with
    | exception Budget.Budget_exceeded Budget.Ops -> true
    | _ -> false)

let test_bdd_budget_lift () =
  let man = Bdd.create ~nvars:16 () in
  Bdd.set_budget man (Budget.create ~max_nodes:8 ());
  (match xor_chain man 16 with
  | exception Budget.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "expected exhaustion");
  (* Lifting the budget lets the same manager finish the work. *)
  Bdd.set_budget man Budget.unlimited;
  let f = xor_chain man 16 in
  check "finishes after lift" true (f <> Bdd.btrue && f <> Bdd.bfalse)

(* ---------- the governed SPCF ladder ---------- *)

let mapped name = Mapper.map (Suite.network (Suite.find name))

let test_governed_ungoverned_identical () =
  let mc = mapped "cmb" in
  let o =
    Spcf.Governed.compute ~algorithm:Spcf.Governed.Short_path ~theta:0.9 mc
  in
  check "ungoverned lands exact" true (o.Spcf.Governed.tier = Spcf.Governed.Exact);
  check "no attempts" true (o.Spcf.Governed.attempts = []);
  let mc' = mapped "cmb" in
  let ctx = Spcf.Ctx.create mc' in
  let target = Spcf.Ctx.target_of_theta ctx 0.9 in
  let r = Spcf.Parallel.short_path ctx ~target in
  check_str "same count"
    (Extfloat.to_string (Spcf.Ctx.count ctx r))
    (Extfloat.to_string
       (Spcf.Ctx.count o.Spcf.Governed.ctx o.Spcf.Governed.result));
  check_int "same critical outputs"
    (Spcf.Ctx.num_critical_outputs r)
    (Spcf.Ctx.num_critical_outputs o.Spcf.Governed.result)

let test_governed_fallback_sound () =
  let mc = mapped "x2" in
  let spec = { Budget.no_limits with Budget.max_ops = Some 50 } in
  let o =
    Spcf.Governed.compute ~spec ~algorithm:Spcf.Governed.Short_path ~theta:0.9 mc
  in
  check "degraded" true (o.Spcf.Governed.tier <> Spcf.Governed.Exact);
  check "attempts recorded" true (o.Spcf.Governed.attempts <> []);
  (* Soundness: any landing tier over-approximates the exact count. *)
  let exact =
    let mc' = mapped "x2" in
    let ctx = Spcf.Ctx.create mc' in
    let target = Spcf.Ctx.target_of_theta ctx 0.9 in
    Spcf.Ctx.count ctx (Spcf.Parallel.short_path ctx ~target)
  in
  let got = Spcf.Ctx.count o.Spcf.Governed.ctx o.Spcf.Governed.result in
  check "over-approximates exact" false (Extfloat.lt got exact)

let test_governed_always_on_floor () =
  let mc = mapped "x2" in
  (* A one-node quota kills even the global BDD construction: both
     governed tiers exhaust and the ungoverned floor must land. *)
  let spec = { Budget.no_limits with Budget.max_nodes = Some 1 } in
  let o =
    Spcf.Governed.compute ~spec ~algorithm:Spcf.Governed.Path_based ~theta:0.9 mc
  in
  check "floor tier" true (o.Spcf.Governed.tier = Spcf.Governed.Always_on);
  check "two walls recorded" true (List.length o.Spcf.Governed.attempts = 2);
  List.iter
    (fun (_, _, sigma) -> check "sigma is 1" true (sigma = Bdd.btrue))
    o.Spcf.Governed.result.Spcf.Ctx.outputs

(* A spec whose external cancel flag is already tripped: the requester
   is gone, so the ladder must abort rather than degrade. *)
let cancelled_spec () =
  let flag = Budget.flag () in
  Budget.trip flag;
  Budget.cancelled_by flag Budget.no_limits

let raises_cancelled f =
  match f () with
  | _ -> false
  | exception Budget.Budget_exceeded Budget.Cancelled -> true

let test_governed_cancel_aborts () =
  let mc = mapped "x2" in
  check "governed compute aborts" true
    (raises_cancelled (fun () ->
         Spcf.Governed.compute ~spec:(cancelled_spec ())
           ~algorithm:Spcf.Governed.Short_path ~theta:0.9 mc))

(* ---------- the synthesis ladder ---------- *)

let verify_clean what m =
  let r = Masking.Verify.check m in
  check (what ^ " equivalent") true r.Masking.Verify.equivalent;
  check (what ^ " coverage") true r.Masking.Verify.coverage_ok;
  check (what ^ " prediction") true r.Masking.Verify.prediction_ok;
  check (what ^ " contract clean") true
    (Analysis.Diag.errors (Analysis.Lint.masking m) = [])

let test_synthesis_node_fallback () =
  let net = Suite.network (Suite.find "x2") in
  (* The op quota sits between the cost of a full node-based synthesis
     (~5.2k apply steps on x2) and of a path-based one (~5.4k), so the
     exact tier exhausts and the node-based rerun completes. *)
  let options =
    {
      Masking.Synthesis.default_options with
      algorithm = Masking.Synthesis.Path_based;
      budget = { Budget.no_limits with Budget.max_ops = Some 5_300 };
    }
  in
  let m = Masking.Synthesis.synthesize ~options net in
  check "landed on node-based" true
    (m.Masking.Synthesis.tier = Spcf.Governed.Node_fallback);
  check "exact wall recorded" true
    (List.exists
       (fun (t, _) -> t = Spcf.Governed.Exact)
       m.Masking.Synthesis.attempts);
  List.iter
    (fun (p : Masking.Synthesis.per_output) ->
      check "per-output tier" true
        (p.Masking.Synthesis.tier = Spcf.Governed.Node_fallback))
    m.Masking.Synthesis.per_output;
  verify_clean "node-fallback" m

let test_synthesis_always_on_floor () =
  let net = Suite.network (Suite.find "x2") in
  let options =
    {
      Masking.Synthesis.default_options with
      budget = { Budget.no_limits with Budget.max_nodes = Some 1 };
    }
  in
  let m = Masking.Synthesis.synthesize ~options net in
  check "landed on the floor" true
    (m.Masking.Synthesis.tier = Spcf.Governed.Always_on);
  check "both walls recorded" true (List.length m.Masking.Synthesis.attempts = 2);
  verify_clean "always-on" m

let test_synthesis_cancel_aborts () =
  let net = Suite.network (Suite.find "x2") in
  let options =
    { Masking.Synthesis.default_options with budget = cancelled_spec () }
  in
  check "synthesis aborts" true
    (raises_cancelled (fun () -> Masking.Synthesis.synthesize ~options net))

let test_synthesis_generous_budget_identical () =
  let net = Suite.network (Suite.find "cmb") in
  let m1 = Masking.Synthesis.synthesize net in
  let options =
    {
      Masking.Synthesis.default_options with
      budget =
        {
          Budget.timeout = Some 3600.;
          max_nodes = Some 100_000_000;
          max_ops = Some 1_000_000_000;
          cancel_with = None;
        };
    }
  in
  let m2 = Masking.Synthesis.synthesize ~options net in
  check "stays exact" true (m2.Masking.Synthesis.tier = Spcf.Governed.Exact);
  check_str "combined circuit identical"
    (Blif.to_string (Mapped.network m1.Masking.Synthesis.combined))
    (Blif.to_string (Mapped.network m2.Masking.Synthesis.combined))

(* ---------- Netopt on constant-only networks (fuzz regression) ---------- *)

(* Under `dune runtest` the cwd is the test directory (fixtures are
   declared deps); fall back for manual runs from the repo root. *)
let fixture_text name =
  let candidates =
    [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path ->
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  | None -> Alcotest.failf "fixture %s not found" name

let test_netopt_const_only () =
  let net = Blif.parse (fixture_text "gen_edge_const_only.blif") in
  let check_consts what net' =
    let _, bdds = Network.to_bdds net' in
    check_int (what ^ " arity") 2 (Array.length bdds);
    check (what ^ " k1 is 1") true (bdds.(0) = Bdd.btrue);
    check (what ^ " k0 is 0") true (bdds.(1) = Bdd.bfalse)
  in
  check_consts "parsed" net;
  (* Both sites used to crash on input-free networks. *)
  check_consts "optimized" (Netopt.optimize net);
  check_consts "collapsed" (Netopt.optimize ~collapse:true net);
  check_consts "chains" (Netopt.collapse_chains net)

let () =
  Alcotest.run "budget"
    [
      ( "spec",
        [
          Alcotest.test_case "merge" `Quick test_spec_merge;
          Alcotest.test_case "of_env" `Quick test_of_env;
          Alcotest.test_case "jobs env" `Quick test_jobs_env;
          Alcotest.test_case "cancel and renew" `Quick test_cancel_and_renew;
        ] );
      ( "bdd",
        [
          Alcotest.test_case "node quota" `Quick test_bdd_node_quota;
          Alcotest.test_case "op quota" `Quick test_bdd_op_quota;
          Alcotest.test_case "budget lift" `Quick test_bdd_budget_lift;
        ] );
      ( "governed",
        [
          Alcotest.test_case "ungoverned identical" `Quick
            test_governed_ungoverned_identical;
          Alcotest.test_case "fallback sound" `Quick test_governed_fallback_sound;
          Alcotest.test_case "always-on floor" `Quick test_governed_always_on_floor;
          Alcotest.test_case "cancel aborts" `Quick test_governed_cancel_aborts;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "node fallback" `Slow test_synthesis_node_fallback;
          Alcotest.test_case "always-on floor" `Slow test_synthesis_always_on_floor;
          Alcotest.test_case "cancel aborts" `Quick test_synthesis_cancel_aborts;
          Alcotest.test_case "generous budget identical" `Slow
            test_synthesis_generous_budget_identical;
        ] );
      ( "netopt",
        [ Alcotest.test_case "constant-only network" `Quick test_netopt_const_only ] );
    ]
