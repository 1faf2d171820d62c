(* Tests for the DPLL solver and the SAT miter, including cross-checks
   of the BDD-based equivalence and masking verification results. *)

let check = Alcotest.(check bool)

let test_dpll_basic () =
  let s = Dpll.create 2 in
  Dpll.add_clause s [ Dpll.pos 0; Dpll.pos 1 ];
  Dpll.add_clause s [ Dpll.neg 0 ];
  (match Dpll.solve s with
  | Dpll.Sat m ->
    check "x0 false" false m.(0);
    check "x1 true" true m.(1)
  | Dpll.Unsat -> Alcotest.fail "satisfiable");
  let u = Dpll.create 1 in
  Dpll.add_clause u [ Dpll.pos 0 ];
  Dpll.add_clause u [ Dpll.neg 0 ];
  check "contradiction unsat" false (Dpll.is_satisfiable u)

(* Pigeonhole: [pigeons] pigeons in [holes] holes, one per hole; UNSAT
   when pigeons > holes. p(i,h) = var i * holes + h. *)
let pigeonhole ~pigeons ~holes =
  let v i h = (i * holes) + h in
  let s = Dpll.create (pigeons * holes) in
  for i = 0 to pigeons - 1 do
    Dpll.add_clause s (List.init holes (fun h -> Dpll.pos (v i h)))
  done;
  for h = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for j = i + 1 to pigeons - 1 do
        Dpll.add_clause s [ Dpll.neg (v i h); Dpll.neg (v j h) ]
      done
    done
  done;
  s

let test_dpll_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small UNSAT instance. *)
  check "pigeonhole unsat" false (Dpll.is_satisfiable (pigeonhole ~pigeons:3 ~holes:2))

(* [clauses] over [nvars] vars against enumeration. The search branches
   on the lowest unassigned variable, true first, and prunes only
   assignments that unit propagation refutes, so its first model is the
   lexicographically greatest one (variable 0 most significant, true
   above false): the first hit of a descending enumeration. *)
let check_against_enumeration nvars clauses =
  let s = Dpll.create nvars in
  List.iter (Dpll.add_clause s) clauses;
  let satisfies env =
    List.for_all
      (List.exists (fun l ->
           let value = env.(Dpll.var_of l) in
           if Dpll.is_neg l then not value else value))
      clauses
  in
  let rec greatest i =
    if i < 0 then None
    else
      let env = Array.init nvars (fun v -> (i lsr (nvars - 1 - v)) land 1 = 1) in
      if satisfies env then Some env else greatest (i - 1)
  in
  match (Dpll.solve s, greatest ((1 lsl nvars) - 1)) with
  | Dpll.Sat m, Some env -> check "greatest model" true (m = env)
  | Dpll.Unsat, None -> ()
  | Dpll.Sat _, None -> Alcotest.fail "model of an unsatisfiable CNF"
  | Dpll.Unsat, Some _ -> Alcotest.fail "Unsat on a satisfiable CNF"

let test_dpll_random_vs_enumeration () =
  (* Random 3-CNF over 8 vars. *)
  let rng = Util.Rng.create 13 in
  for _ = 1 to 50 do
    let nvars = 8 in
    let nclauses = 4 + Util.Rng.int rng 30 in
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = Util.Rng.int rng nvars in
              if Util.Rng.bool rng then Dpll.pos v else Dpll.neg v))
    in
    check_against_enumeration nvars clauses
  done

let test_dpll_greatest_model () =
  (* Random CNFs over <= 12 vars, with repeated literals, unit clauses
     and the odd empty clause. *)
  let rng = Util.Rng.create 2718 in
  let lit nvars =
    let v = Util.Rng.int rng nvars in
    if Util.Rng.bool rng then Dpll.pos v else Dpll.neg v
  in
  for _ = 1 to 400 do
    let nvars = 1 + Util.Rng.int rng 12 in
    let nclauses = Util.Rng.int rng (4 * nvars) in
    let clause () =
      match Util.Rng.int rng 20 with
      | 0 -> []
      | 1 | 2 | 3 -> [ lit nvars ]
      | 4 | 5 ->
        let l = lit nvars in
        [ l; lit nvars; l ]
      | _ -> List.init (2 + Util.Rng.int rng 3) (fun _ -> lit nvars)
    in
    check_against_enumeration nvars (List.init nclauses (fun _ -> clause ()))
  done

let test_dpll_starved_budget () =
  (* 5 pigeons in 4 holes needs far more than 10 decisions: a starved
     budget must abort the search, never report Unsat. *)
  List.iter
    (fun max_ops ->
      let budget = Budget.create ~max_ops () in
      match Dpll.solve ~budget (pigeonhole ~pigeons:5 ~holes:4) with
      | exception Budget.Budget_exceeded _ -> ()
      | Dpll.Unsat -> Alcotest.failf "Unsat under a %d-op budget" max_ops
      | Dpll.Sat _ -> Alcotest.fail "model of an unsatisfiable CNF")
    [ 0; 1; 2; 10 ];
  check "unbudgeted unsat" false (Dpll.is_satisfiable (pigeonhole ~pigeons:5 ~holes:4));
  (* A unit clause is settled before the first decision; a clause that
     repeats one literal is not unit, so it costs one. *)
  let solve_starved lits =
    let s = Dpll.create 1 in
    Dpll.add_clause s lits;
    Dpll.solve ~budget:(Budget.create ~max_ops:0 ()) s
  in
  (match solve_starved [ Dpll.pos 0 ] with
  | Dpll.Sat m -> check "unit clause" true m.(0)
  | Dpll.Unsat -> Alcotest.fail "Unsat on a unit clause");
  match solve_starved [ Dpll.pos 0; Dpll.pos 0 ] with
  | exception Budget.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "a repeated literal propagated as a unit clause"

let test_miter_agrees_with_bdd () =
  (* SAT miter and BDD equivalence agree on optimized copies. The
     benchmark circuits contain XOR chains, whose miters are Tseitin
     formulas — exponential for DPLL without clause learning — so the
     cross-check runs on the smallest circuit plus the comparator. *)
  List.iter
    (fun (name, net) ->
      let opt = Netopt.optimize net in
      check (name ^ ": sat says equivalent") true (Tseitin.equivalent net opt);
      check (name ^ ": agrees with bdd") true
        (Tseitin.equivalent net opt = Network.equivalent net opt))
    [ ("cmb", Suite.load "cmb"); ("comparator", Comparator.network ()) ]

let test_miter_detects_difference () =
  (* Build two tiny networks differing in one gate. *)
  let vars = [| "x"; "y" |] in
  let build func =
    let net = Network.create () in
    let a = Network.add_input net "a" in
    let b = Network.add_input net "b" in
    let z = Network.add_node net "z" ~fanins:[| a; b |] ~func in
    Network.mark_output net ~name:"z" z;
    net
  in
  let and_net = build (Logic2.Sop.parse ~vars "x*y") in
  let or_net = build (Logic2.Sop.parse ~vars "x + y") in
  let and_net2 = build (Logic2.Sop.parse ~vars "x*y") in
  check "same function equivalent" true (Tseitin.equivalent and_net and_net2);
  check "different function detected" false (Tseitin.equivalent and_net or_net)

let test_masking_equivalence_by_sat () =
  (* The flagship cross-check: the masked circuit is equivalent to the
     original under an engine that shares nothing with the BDD verifier. *)
  List.iter
    (fun name ->
      let net = Suite.load name in
      let m = Masking.Synthesis.synthesize net in
      let combined = Mapped.network m.Masking.Synthesis.combined in
      (* Restrict the combined circuit to the original output set. *)
      let restricted = Network.extract_cone combined (
        Array.to_list (Network.outputs net) |> List.map fst)
      in
      check (name ^ ": sat equivalence of masked circuit") true
        (Tseitin.equivalent net restricted))
    [ "cmb" ]

let () =
  Alcotest.run "sat"
    [
      ( "dpll",
        [
          Alcotest.test_case "basics" `Quick test_dpll_basic;
          Alcotest.test_case "pigeonhole" `Quick test_dpll_pigeonhole;
          Alcotest.test_case "random vs enumeration" `Quick test_dpll_random_vs_enumeration;
          Alcotest.test_case "greatest model" `Quick test_dpll_greatest_model;
          Alcotest.test_case "starved budget" `Quick test_dpll_starved_budget;
        ] );
      ( "miter",
        [
          Alcotest.test_case "agrees with bdd" `Slow test_miter_agrees_with_bdd;
          Alcotest.test_case "detects difference" `Quick test_miter_detects_difference;
          Alcotest.test_case "masked circuit equivalence" `Slow
            test_masking_equivalence_by_sat;
        ] );
    ]
