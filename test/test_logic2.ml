(* Unit and property tests for the two-level logic library: bitsets,
   cubes, covers, tautology/complement, prime implicants. *)

open Logic2

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Bits ---------- *)

let test_bits_basic () =
  let b = Bits.create 100 in
  check "empty" true (Bits.is_empty b);
  Bits.set b 0;
  Bits.set b 63;
  Bits.set b 99;
  check "get 0" true (Bits.get b 0);
  check "get 63" true (Bits.get b 63);
  check "get 99" true (Bits.get b 99);
  check "get 50" false (Bits.get b 50);
  check_int "count" 3 (Bits.count b);
  Bits.clear b 63;
  check "cleared" false (Bits.get b 63);
  check_int "count after clear" 2 (Bits.count b)

let test_bits_set_ops () =
  let a = Bits.of_list 70 [ 1; 5; 64 ] and b = Bits.of_list 70 [ 5; 6; 69 ] in
  check_int "union" 5 (Bits.count (Bits.union a b));
  check_int "inter" 1 (Bits.count (Bits.inter a b));
  check_int "diff" 2 (Bits.count (Bits.diff a b));
  check "subset no" false (Bits.subset a b);
  check "subset yes" true (Bits.subset (Bits.inter a b) a);
  check "disjoint no" false (Bits.disjoint a b);
  let c = Bits.complement a in
  check_int "complement count" 67 (Bits.count c);
  check "complement disjoint" true (Bits.disjoint a c);
  check "first_set" true (Bits.first_set a = Some 1);
  check "roundtrip" true (Bits.to_list a = [ 1; 5; 64 ])

let bits_gen =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(list_size (int_bound 20) (int_bound 126))

let prop_bits_demorgan =
  QCheck.Test.make ~name:"bits: De Morgan" ~count:200
    (QCheck.pair bits_gen bits_gen) (fun (la, lb) ->
      let a = Bits.of_list 127 la and b = Bits.of_list 127 lb in
      Bits.equal
        (Bits.complement (Bits.union a b))
        (Bits.inter (Bits.complement a) (Bits.complement b)))

let prop_bits_count =
  QCheck.Test.make ~name:"bits: |a∪b| + |a∩b| = |a| + |b|" ~count:200
    (QCheck.pair bits_gen bits_gen) (fun (la, lb) ->
      let a = Bits.of_list 127 la and b = Bits.of_list 127 lb in
      Bits.count (Bits.union a b) + Bits.count (Bits.inter a b)
      = Bits.count a + Bits.count b)

(* ---------- Cubes ---------- *)

let cube_gen n =
  let open QCheck.Gen in
  let lit = pair (int_bound (n - 1)) bool in
  map
    (fun lits ->
      (* Deduplicate variables to avoid contradictions. *)
      let seen = Hashtbl.create 8 in
      let lits =
        List.filter
          (fun (v, _) ->
            if Hashtbl.mem seen v then false
            else begin
              Hashtbl.add seen v ();
              true
            end)
          lits
      in
      Cube.make n lits)
    (list_size (int_bound n) lit)

let arb_cube n = QCheck.make ~print:Cube.to_string (cube_gen n)

let test_cube_basic () =
  let c = Cube.make 4 [ (0, true); (2, false) ] in
  check_int "literals" 2 (Cube.num_literals c);
  check "eval sat" true (Cube.eval c [| true; false; false; true |]);
  check "eval unsat" false (Cube.eval c [| true; false; true; true |]);
  check "universe covers" true (Cube.covers (Cube.universe 4) c);
  check "not covers universe" false (Cube.covers c (Cube.universe 4));
  check "polarity pos" true (Cube.polarity c 0 = Cube.Pos);
  check "polarity neg" true (Cube.polarity c 2 = Cube.Neg);
  check "polarity absent" true (Cube.polarity c 1 = Cube.Absent)

let test_cube_ops () =
  let a = Cube.make 3 [ (0, true) ] and b = Cube.make 3 [ (0, false); (1, true) ] in
  check "intersect empty" true (Cube.intersect a b = None);
  check_int "distance" 1 (Cube.distance a b);
  let c = Cube.make 3 [ (1, true) ] in
  (match Cube.intersect a c with
  | Some x -> check_int "intersect lits" 2 (Cube.num_literals x)
  | None -> Alcotest.fail "intersect should exist");
  (match Cube.consensus a b with
  | Some x -> check "consensus" true (Cube.equal x (Cube.make 3 [ (1, true) ]))
  | None -> Alcotest.fail "consensus should exist")

let prop_cube_intersect_eval =
  QCheck.Test.make ~name:"cube: eval of intersection = conjunction" ~count:500
    (QCheck.pair (arb_cube 6) (arb_cube 6)) (fun (a, b) ->
      let assignment = Array.init 6 (fun i -> i land 1 = 0) in
      match Cube.intersect a b with
      | Some c -> Cube.eval c assignment = (Cube.eval a assignment && Cube.eval b assignment)
      | None ->
        (* Empty intersection: no assignment satisfies both. *)
        let all = List.init 64 (fun i -> Array.init 6 (fun v -> i lsr v land 1 = 1)) in
        List.for_all (fun x -> not (Cube.eval a x && Cube.eval b x)) all)

let prop_cube_covers_semantics =
  QCheck.Test.make ~name:"cube: covers = minterm containment" ~count:300
    (QCheck.pair (arb_cube 5) (arb_cube 5)) (fun (a, b) ->
      let all = List.init 32 (fun i -> Array.init 5 (fun v -> i lsr v land 1 = 1)) in
      Cube.covers a b
      = List.for_all (fun x -> (not (Cube.eval b x)) || Cube.eval a x) all)

(* ---------- Covers ---------- *)

let cover_gen n =
  QCheck.Gen.map (Cover.of_cubes n) QCheck.Gen.(list_size (int_bound 6) (cube_gen n))

let arb_cover n = QCheck.make ~print:Cover.to_string (cover_gen n)

let all_assignments n = List.init (1 lsl n) (fun i -> Array.init n (fun v -> i lsr v land 1 = 1))

let test_cover_basic () =
  let vars = [| "a"; "b"; "c" |] in
  let f = Sop.parse ~vars "a*b + !a*c" in
  check "eval 110" true (Cover.eval f [| true; true; false |]);
  check "eval 001" true (Cover.eval f [| false; false; true |]);
  check "eval 100" false (Cover.eval f [| true; false; false |]);
  check "not taut" false (Cover.is_tautology f);
  check "a + !a taut" true (Cover.is_tautology (Sop.parse ~vars "a + !a"));
  check "zero" true (Cover.is_zero (Cover.zero 3))

let test_cover_complement () =
  let vars = [| "a"; "b"; "c"; "d" |] in
  let f = Sop.parse ~vars "a*b + c*!d + !a*!b*!c" in
  let g = Cover.complement f in
  List.iter
    (fun x -> check "complement pointwise" true (Cover.eval f x <> Cover.eval g x))
    (all_assignments 4)

let prop_cover_complement =
  QCheck.Test.make ~name:"cover: complement is pointwise negation" ~count:200
    (arb_cover 5) (fun f ->
      let g = Cover.complement f in
      List.for_all (fun x -> Cover.eval f x <> Cover.eval g x) (all_assignments 5))

let prop_cover_tautology =
  QCheck.Test.make ~name:"cover: tautology = all-ones truth table" ~count:300
    (arb_cover 5) (fun f ->
      Cover.is_tautology f = List.for_all (Cover.eval f) (all_assignments 5))

let prop_cover_product =
  QCheck.Test.make ~name:"cover: product is conjunction" ~count:200
    (QCheck.pair (arb_cover 5) (arb_cover 5)) (fun (f, g) ->
      let p = Cover.product f g in
      List.for_all
        (fun x -> Cover.eval p x = (Cover.eval f x && Cover.eval g x))
        (all_assignments 5))

let prop_cover_irredundant =
  QCheck.Test.make ~name:"cover: irredundant preserves the function" ~count:200
    (arb_cover 5) (fun f ->
      let g = Cover.irredundant f in
      List.for_all (fun x -> Cover.eval f x = Cover.eval g x) (all_assignments 5))

let prop_cover_minimize =
  QCheck.Test.make ~name:"cover: minimize preserves function, never grows" ~count:200
    (arb_cover 5) (fun f ->
      let g = Cover.minimize f in
      Cover.num_cubes g <= max 1 (Cover.num_cubes f)
      && List.for_all (fun x -> Cover.eval f x = Cover.eval g x) (all_assignments 5))

let prop_cover_covers_cube =
  QCheck.Test.make ~name:"cover: covers_cube semantics" ~count:300
    (QCheck.pair (arb_cover 4) (arb_cube 4)) (fun (f, c) ->
      Cover.covers_cube f c
      = List.for_all
          (fun x -> (not (Cube.eval c x)) || Cover.eval f x)
          (all_assignments 4))

(* ---------- Primes ---------- *)

let is_implicant f c =
  List.for_all
    (fun x -> (not (Cube.eval c x)) || Cover.eval f x)
    (all_assignments (Cover.num_vars f))

let is_prime f c =
  is_implicant f c
  && List.for_all
       (fun (v, _) -> not (is_implicant f (Cube.remove_var c v)))
       (Cube.literals c)

let prop_primes_consensus =
  QCheck.Test.make ~name:"primes: every output cube is prime; function preserved"
    ~count:100 (arb_cover 4) (fun f ->
      QCheck.assume (not (Cover.is_zero f));
      let p = Primes.of_cover f in
      List.for_all (is_prime f) (Cover.cubes p)
      && List.for_all
           (fun x -> Cover.eval f x = Cover.eval p x)
           (all_assignments 4))

let prop_primes_qm_equals_consensus =
  QCheck.Test.make ~name:"primes: QM = iterated consensus" ~count:100
    (arb_cover 4) (fun f ->
      let via_consensus = Primes.of_cover f in
      let via_qm = Primes.quine_mccluskey (Truth.of_cover f) in
      let norm c = List.sort compare (List.map Cube.literals (Cover.cubes c)) in
      norm via_consensus = norm via_qm)

let test_primes_example () =
  (* xor has exactly its two minterm cubes as primes *)
  let vars = [| "a"; "b" |] in
  let f = Sop.parse ~vars "a*!b + !a*b" in
  let p = Primes.of_cover f in
  check_int "xor primes" 2 (Cover.num_cubes p);
  let on, off = Primes.onset_and_offset_primes f in
  check_int "xor on-primes" 2 (Cover.num_cubes on);
  check_int "xor off-primes" 2 (Cover.num_cubes off)

(* ---------- Truth / Sop ---------- *)

let test_truth_roundtrip () =
  let vars = [| "a"; "b"; "c" |] in
  let f = Sop.parse ~vars "a*b + !c" in
  let t = Truth.of_cover f in
  let f' = Truth.to_cover t in
  List.iter
    (fun x -> check "roundtrip" true (Cover.eval f x = Cover.eval f' x))
    (all_assignments 3)

let test_blif_rows () =
  let c = Sop.cube_of_blif_row 4 "01-1" in
  check "row decode" true
    (Cube.equal c (Cube.make 4 [ (0, false); (1, true); (3, true) ]));
  check "row encode" true (Sop.blif_row_of_cube c = "01-1")

(* Deterministic QCheck seeding (no wall-clock self-init): the state
   comes from Fuzz.Rng.qcheck_state, overridable via QCHECK_SEED. *)
let qsuite name tests =
  let rand = Fuzz.Rng.qcheck_state () in
  (name, List.map (QCheck_alcotest.to_alcotest ~rand) tests)

let () =
  Alcotest.run "logic2"
    [
      ( "bits",
        [
          Alcotest.test_case "basic" `Quick test_bits_basic;
          Alcotest.test_case "set ops" `Quick test_bits_set_ops;
        ] );
      qsuite "bits-props" [ prop_bits_demorgan; prop_bits_count ];
      ( "cube",
        [
          Alcotest.test_case "basic" `Quick test_cube_basic;
          Alcotest.test_case "ops" `Quick test_cube_ops;
        ] );
      qsuite "cube-props" [ prop_cube_intersect_eval; prop_cube_covers_semantics ];
      ( "cover",
        [
          Alcotest.test_case "basic" `Quick test_cover_basic;
          Alcotest.test_case "complement" `Quick test_cover_complement;
        ] );
      qsuite "cover-props"
        [
          prop_cover_complement;
          prop_cover_tautology;
          prop_cover_product;
          prop_cover_irredundant;
          prop_cover_minimize;
          prop_cover_covers_cube;
        ];
      ("primes", [ Alcotest.test_case "xor" `Quick test_primes_example ]);
      qsuite "primes-props" [ prop_primes_consensus; prop_primes_qm_equals_consensus ];
      ( "truth-sop",
        [
          Alcotest.test_case "truth roundtrip" `Quick test_truth_roundtrip;
          Alcotest.test_case "blif rows" `Quick test_blif_rows;
        ] );
    ]
