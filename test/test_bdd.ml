(* Unit and property tests for the BDD package: operations checked
   against truth-table semantics on random expressions, extended-range
   sat-counting, quantification, composition, ISOP extraction. *)

let check = Alcotest.(check bool)
let _check_int = Alcotest.(check int)

(* ---------- Extfloat ---------- *)

let test_extfloat_basic () =
  let open Extfloat in
  check "zero" true (is_zero zero);
  check "1+1=2" true (equal (add one one) (of_float 2.));
  check "3*4=12" true (equal (mul (of_float 3.) (of_float 4.)) (of_float 12.));
  check "12/4=3" true (equal (div (of_float 12.) (of_float 4.)) (of_float 3.));
  check "2^10" true (equal (pow2 10) (of_float 1024.));
  check "mul_pow2" true (equal (mul_pow2 (of_float 3.) 4) (of_float 48.));
  check "compare" true (lt (of_float 3.) (of_float 4.));
  check "roundtrip" true (to_float (of_float 1.5e300) = 1.5e300)

let test_extfloat_huge () =
  let open Extfloat in
  (* 2^882 — beyond IEEE range. *)
  let huge = pow2 882 in
  check "log2" true (abs_float (log2 huge -. 882.) < 1e-9);
  check "add self" true (equal (add huge huge) (pow2 883));
  check "ratio" true (to_float (div huge (pow2 880)) = 4.);
  check "ordering" true (lt (pow2 881) huge);
  (* String form: 2^882 ≈ 3.2e265 *)
  let s = to_string huge in
  check "sci string" true (String.length s > 4 && String.sub s (String.length s - 3) 3 = "265")

let test_extfloat_sum_precision () =
  let open Extfloat in
  (* Sum of 1000 ones equals 1000 despite normalization. *)
  let s = List.fold_left add zero (List.init 1000 (fun _ -> one)) in
  check "sum" true (equal s (of_float 1000.))

(* ---------- Random Boolean expressions ---------- *)

type expr =
  | Var of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

let rec eval_expr env = function
  | Var v -> env.(v)
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Or (a, b) -> eval_expr env a || eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b

let rec build_bdd man = function
  | Var v -> Bdd.var man v
  | Not e -> Bdd.bnot man (build_bdd man e)
  | And (a, b) -> Bdd.band man (build_bdd man a) (build_bdd man b)
  | Or (a, b) -> Bdd.bor man (build_bdd man a) (build_bdd man b)
  | Xor (a, b) -> Bdd.bxor man (build_bdd man a) (build_bdd man b)

let expr_gen nvars =
  let open QCheck.Gen in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n <= 0 then map (fun v -> Var v) (int_bound (nvars - 1))
      else
        frequency
          [
            (1, map (fun v -> Var v) (int_bound (nvars - 1)));
            (2, map (fun e -> Not e) (self (n - 1)));
            (2, map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2)));
          ])

let rec expr_print = function
  | Var v -> Printf.sprintf "x%d" v
  | Not e -> Printf.sprintf "!(%s)" (expr_print e)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (expr_print a) (expr_print b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (expr_print a) (expr_print b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (expr_print a) (expr_print b)

let arb_expr n = QCheck.make ~print:expr_print (expr_gen n)

let nvars = 6
let all_envs = List.init (1 lsl nvars) (fun i -> Array.init nvars (fun v -> i lsr v land 1 = 1))

let prop_bdd_semantics =
  QCheck.Test.make ~name:"bdd: eval matches expression semantics" ~count:300
    (arb_expr nvars) (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      List.for_all (fun env -> Bdd.eval man f env = eval_expr env e) all_envs)

let prop_bdd_canonical =
  QCheck.Test.make ~name:"bdd: semantic equality = handle equality" ~count:200
    (QCheck.pair (arb_expr nvars) (arb_expr nvars)) (fun (a, b) ->
      let man = Bdd.create ~nvars () in
      let fa = build_bdd man a and fb = build_bdd man b in
      let sem_equal = List.for_all (fun env -> eval_expr env a = eval_expr env b) all_envs in
      (fa = fb) = sem_equal)

let prop_bdd_satcount =
  QCheck.Test.make ~name:"bdd: satcount matches enumeration" ~count:200
    (arb_expr nvars) (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let expected = List.length (List.filter (fun env -> eval_expr env e) all_envs) in
      Extfloat.equal (Bdd.satcount man f) (Extfloat.of_float (float_of_int expected)))

let prop_bdd_exists =
  QCheck.Test.make ~name:"bdd: existential quantification" ~count:200
    (QCheck.pair (arb_expr nvars) (QCheck.int_bound (nvars - 1))) (fun (e, v) ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let vars = Array.init nvars (fun i -> i = v) in
      let ex = Bdd.exists man vars f in
      List.for_all
        (fun env ->
          let env0 = Array.copy env and env1 = Array.copy env in
          env0.(v) <- false;
          env1.(v) <- true;
          Bdd.eval man ex env = (eval_expr env0 e || eval_expr env1 e))
        all_envs)

let prop_bdd_restrict =
  QCheck.Test.make ~name:"bdd: restrict pins a variable" ~count:200
    (QCheck.triple (arb_expr nvars) (QCheck.int_bound (nvars - 1)) QCheck.bool)
    (fun (e, v, value) ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let r = Bdd.restrict man f v value in
      List.for_all
        (fun env ->
          let env' = Array.copy env in
          env'.(v) <- value;
          Bdd.eval man r env = eval_expr env' e)
        all_envs)

let prop_bdd_support =
  QCheck.Test.make ~name:"bdd: support contains exactly the sensitive vars" ~count:200
    (arb_expr nvars) (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let sup = Bdd.support man f in
      let sensitive v =
        List.exists
          (fun env ->
            let env' = Array.copy env in
            env'.(v) <- not env'.(v);
            eval_expr env e <> eval_expr env' e)
          all_envs
      in
      List.for_all (fun v -> sup.(v) = sensitive v) (List.init nvars (fun i -> i)))

let prop_bdd_cover_bridge =
  QCheck.Test.make ~name:"bdd: of_cover matches Cover.eval" ~count:200
    (QCheck.make ~print:Logic2.Cover.to_string
       (QCheck.Gen.map (Logic2.Cover.of_cubes nvars)
          QCheck.Gen.(
            list_size (int_bound 5)
              (map
                 (fun lits ->
                   let seen = Hashtbl.create 8 in
                   let lits =
                     List.filter
                       (fun (v, _) ->
                         if Hashtbl.mem seen v then false
                         else (Hashtbl.add seen v (); true))
                       lits
                   in
                   Logic2.Cube.make nvars lits)
                 (list_size (int_bound nvars) (pair (int_bound (nvars - 1)) bool))))))
    (fun cover ->
      let man = Bdd.create ~nvars () in
      let f = Bdd.of_cover man cover in
      List.for_all (fun env -> Bdd.eval man f env = Logic2.Cover.eval cover env) all_envs)

let test_sample_sat () =
  let man = Bdd.create ~nvars:8 () in
  (* f = x0 & !x3 *)
  let f = Bdd.band man (Bdd.var man 0) (Bdd.nvar man 3) in
  let rng = Util.Rng.create 5 in
  for _ = 1 to 50 do
    match Bdd.sample_sat man f ~rand_float:(fun () -> Util.Rng.float rng) with
    | None -> Alcotest.fail "satisfiable function"
    | Some a ->
      check "sample satisfies" true (Bdd.eval man f a)
  done;
  check "unsat sample" true
    (Bdd.sample_sat man Bdd.bfalse ~rand_float:(fun () -> 0.5) = None)

(* ---------- ISOP ---------- *)

let prop_isop_exact =
  QCheck.Test.make ~name:"isop: of_bdd reproduces the function" ~count:200
    (arb_expr nvars) (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let cover = Isop.of_bdd man f in
      List.for_all
        (fun env -> Logic2.Cover.eval cover env = eval_expr env e)
        all_envs)

let prop_isop_interval =
  QCheck.Test.make ~name:"isop: interval result lies within bounds" ~count:200
    (QCheck.pair (arb_expr nvars) (arb_expr nvars)) (fun (a, b) ->
      let man = Bdd.create ~nvars () in
      let fa = build_bdd man a and fb = build_bdd man b in
      let lower = Bdd.band man fa fb in
      let upper = Bdd.bor man fa fb in
      let cover = Isop.compute man ~lower ~upper in
      let g = Bdd.of_cover man cover in
      Bdd.bimply man lower g = Bdd.btrue && Bdd.bimply man g upper = Bdd.btrue)

let prop_isop_exploits_dc =
  QCheck.Test.make ~name:"isop: interval cover never larger than exact" ~count:100
    (arb_expr nvars) (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let exact = Isop.of_bdd man f in
      (* Widen the interval by an extra don't-care variable pattern. *)
      let upper = Bdd.bor man f (Bdd.var man 0) in
      let relaxed = Isop.compute man ~lower:(Bdd.band man f (Bdd.nvar man 0)) ~upper in
      Logic2.Cover.num_cubes relaxed <= max 1 (Logic2.Cover.num_cubes exact) + 1)

let test_satcount_wide () =
  (* A function over 700 variables: x0 | x1 — count = 2^700 - 2^698·1 *)
  let man = Bdd.create ~nvars:700 () in
  let f = Bdd.bor man (Bdd.var man 0) (Bdd.var man 1) in
  let count = Bdd.satcount man f in
  (* 3/4 of 2^700 = 3 × 2^698 *)
  check "wide satcount" true
    (Extfloat.equal count (Extfloat.mul_pow2 (Extfloat.of_float 3.) 698))

(* Deterministic QCheck seeding (no wall-clock self-init): the state
   comes from Fuzz.Rng.qcheck_state, overridable via QCHECK_SEED. *)
let qsuite name tests =
  let rand = Fuzz.Rng.qcheck_state () in
  (name, List.map (QCheck_alcotest.to_alcotest ~rand) tests)

let () =
  Alcotest.run "bdd"
    [
      ( "extfloat",
        [
          Alcotest.test_case "basic" `Quick test_extfloat_basic;
          Alcotest.test_case "huge" `Quick test_extfloat_huge;
          Alcotest.test_case "sum precision" `Quick test_extfloat_sum_precision;
        ] );
      qsuite "bdd-props"
        [
          prop_bdd_semantics;
          prop_bdd_canonical;
          prop_bdd_satcount;
          prop_bdd_exists;
          prop_bdd_restrict;
          prop_bdd_support;
          prop_bdd_cover_bridge;
        ];
      ( "bdd-unit",
        [
          Alcotest.test_case "sample_sat" `Quick test_sample_sat;
          Alcotest.test_case "satcount 700 vars" `Quick test_satcount_wide;
        ] );
      qsuite "isop" [ prop_isop_exact; prop_isop_interval; prop_isop_exploits_dc ];
    ]
