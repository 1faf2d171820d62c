(* Stress tests for the shared-memory BDD manager: N domains hammer
   interleaved inserts and lookups of overlapping cones into one unique
   table, and the table must stay canonical — no duplicate
   (var, low, high) triple, handles stable across stripe growth, every
   domain agreeing on the handle of every function, compiled cell
   elaboration agreeing with the SOP fold from every domain. On top of
   the raw core, the jobs knob of the shared-manager SPCF/synthesis
   path must not change a single output byte over the fuzzed-circuit
   corpus. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- deterministic expression pool ---------- *)

(* A tiny splitmix-style generator: the pool must be identical in every
   run and every domain, with no dependence on wall clock or
   Random.self_init. *)
let mix seed =
  (* xorshift-style constants chosen to fit OCaml's 63-bit int. *)
  let z = (seed lxor (seed lsr 29)) * 0x106689D45497FDB5 in
  let z = (z lxor (z lsr 32)) * 0x2545F4914F6CDD1D in
  z lxor (z lsr 29)

type expr = Var of int | Not of expr | And of expr * expr | Xor of expr * expr

let rec gen_expr ~nvars state depth =
  let state = mix state in
  let choice = (state land max_int) mod (if depth <= 0 then 1 else 4) in
  match choice with
  | 0 -> (Var ((state lsr 7) land max_int mod nvars), mix state)
  | 1 ->
    let e, st = gen_expr ~nvars (state + 1) (depth - 1) in
    (Not e, st)
  | 2 ->
    let a, st = gen_expr ~nvars (state + 1) (depth - 1) in
    let b, st' = gen_expr ~nvars (st + 2) (depth - 1) in
    (And (a, b), st')
  | _ ->
    let a, st = gen_expr ~nvars (state + 1) (depth - 1) in
    let b, st' = gen_expr ~nvars (st + 2) (depth - 1) in
    (Xor (a, b), st')

let rec eval_expr env = function
  | Var v -> env.(v)
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b

let rec build man = function
  | Var v -> Bdd.var man v
  | Not e -> Bdd.bnot man (build man e)
  | And (a, b) -> Bdd.band man (build man a) (build man b)
  | Xor (a, b) -> Bdd.bxor man (build man a) (build man b)

let nvars = 14

let pool =
  List.init 96 (fun i -> fst (gen_expr ~nvars (mix (i * 7919)) 7))

(* ---------- table invariants ---------- *)

(* Walk every published node once: no duplicate triples, high edges
   regular (the complement-edge normal form of bdd.mli), children
   ordered below their parent in the variable order, and every child
   either terminal or, stripped of its complement bit, itself a
   published node. *)
let assert_canonical man =
  let seen = Hashtbl.create 4096 in
  let ids = Hashtbl.create 4096 in
  let regular c = (c : Bdd.t :> int) land lnot 1 in
  Bdd.iter_nodes man (fun n v lo hi ->
      Hashtbl.replace ids (n : Bdd.t :> int) ();
      check "node handle regular" true (regular n = (n :> int));
      check "high edge regular" true (regular hi = (hi :> int));
      check "reduced (low <> high)" true ((lo :> int) <> (hi :> int));
      check "variable in range" true (v >= 0 && v < Bdd.nvars man);
      (match Hashtbl.find_opt seen (v, (lo :> int), (hi :> int)) with
      | Some first ->
        Alcotest.failf "duplicate triple (%d,%d,%d): nodes %d and %d" v
          (lo :> int)
          (hi :> int)
          first
          (n :> int)
      | None -> Hashtbl.add seen (v, (lo :> int), (hi :> int)) (n :> int)));
  (* Children can carry larger handles than their parents in a shared
     manager (another domain may intern them later), so the child
     checks run in a second pass with the full id set known. *)
  Bdd.iter_nodes man (fun _ v lo hi ->
      let child_ok c =
        Bdd.is_terminal c || (Bdd.var_of man c > v && Hashtbl.mem ids (regular c))
      in
      check "low child published and ordered" true (child_ok lo);
      check "high child published and ordered" true (child_ok hi))

let spawn_all bodies =
  Array.map Domain.join (Array.map Domain.spawn bodies)

(* ---------- multi-domain hammer ---------- *)

(* Every domain builds the whole pool (maximal cone overlap) plus a
   private slice, interleaving fresh inserts with lookups of nodes
   other domains are publishing concurrently. All domains must agree
   on every pool handle, and the table must stay canonical. *)
let test_hammer ndomains () =
  let man = Bdd.create_shared ~cache_bits:10 ~nvars () in
  let results =
    spawn_all
      (Array.init ndomains (fun d () ->
           List.map
             (fun e ->
               let f = build man e in
               (* Private variation: perturb with a domain-specific
                  literal so domains also insert non-shared nodes
                  (these are not compared across domains). *)
               ignore (Bdd.band man f (Bdd.var man (d mod nvars)) : Bdd.t);
               f)
             pool))
  in
  (* Handle agreement: a canonical table gives every domain the same
     handle for the same function. *)
  Array.iteri
    (fun d handles ->
      check
        (Printf.sprintf "domain %d handles agree with domain 0" d)
        true
        (List.equal (fun (a : Bdd.t) b -> a = b) handles results.(0)))
    results;
  assert_canonical man;
  (* Semantics: spot-check every pool function on 64 assignments. *)
  let handles = Array.of_list results.(0) in
  List.iteri
    (fun i e ->
      let f = handles.(i) in
      for trial = 0 to 63 do
        let bits = mix (trial + (i * 131)) in
        let env = Array.init nvars (fun v -> (bits lsr v) land 1 = 1) in
        check "semantics" (eval_expr env e) (Bdd.eval man f env)
      done)
    pool

(* Handles must survive stripe growth/rehash: record them, force a few
   doublings with bulk concurrent inserts, then re-derive. *)
let test_stable_across_growth () =
  let man = Bdd.create_shared ~nvars () in
  let before = List.map (build man) pool in
  let evals =
    List.map
      (fun f ->
        Array.init 32 (fun t ->
            Bdd.eval man f (Array.init nvars (fun v -> (mix t lsr v) land 1 = 1))))
      before
  in
  (* Bulk inserts from several domains: enough distinct functions to
     push the 4096-slot initial capacity through several stripe
     doublings. *)
  ignore
    (spawn_all
       (Array.init 4 (fun d () ->
           for i = 0 to 120 do
             let e, _ = gen_expr ~nvars (mix ((d * 100003) + (i * 17))) 9 in
             ignore (build man e : Bdd.t)
           done)));
  check "table grew" true (Bdd.unique_capacity man > 4096);
  (* Same functions, same handles, same semantics. *)
  List.iteri
    (fun i (e, f0) ->
      let f = build man e in
      check_int
        (Printf.sprintf "pool[%d] handle stable" i)
        ((f0 : Bdd.t) :> int)
        ((f : Bdd.t) :> int);
      let ev = List.nth evals i in
      Array.iteri
        (fun t expected ->
          check "eval stable" expected
            (Bdd.eval man f (Array.init nvars (fun v -> (mix t lsr v) land 1 = 1))))
        ev)
    (List.combine pool before);
  assert_canonical man

(* clear_caches from the main domain must invalidate every domain's
   computed cache without changing any result. *)
let test_clear_caches_shared () =
  let man = Bdd.create_shared ~nvars () in
  let r1 = spawn_all (Array.init 4 (fun _ () -> List.map (build man) pool)) in
  Bdd.clear_caches man;
  let r2 = spawn_all (Array.init 4 (fun _ () -> List.map (build man) pool)) in
  check "handles unchanged after clear_caches" true
    (List.equal (fun (a : Bdd.t) b -> a = b) r1.(0) r2.(0));
  assert_canonical man

(* The budget node wall applies to the one shared table: concurrent
   writers can overshoot by at most their in-flight claims, and at
   least one of them must hit the wall. *)
let test_shared_node_wall () =
  let man = Bdd.create_shared ~nvars () in
  let quota = 2000 in
  Bdd.set_budget man (Budget.create ~max_nodes:quota ());
  let ndomains = 4 in
  let outcomes =
    spawn_all
      (Array.init ndomains (fun d () ->
           try
             List.iter
               (fun e ->
                 ignore (build man e : Bdd.t);
                 ignore
                   (Bdd.band man (build man e) (Bdd.var man (d mod nvars)) : Bdd.t))
               pool;
             `Completed
           with Budget.Budget_exceeded Budget.Nodes -> `Walled))
  in
  check "at least one domain hit the node wall" true
    (Array.exists (fun o -> o = `Walled) outcomes);
  (* Each writer can overshoot by at most its one in-flight id claim. *)
  check "allocation stopped at the wall (plus in-flight claims)" true
    (Bdd.num_nodes man <= quota + (2 * ndomains))

(* Compiled cell elaboration from several domains at once: each domain
   compiles the Cell.all covers into its own program table and replays
   them on the shared manager, and every domain must land on the
   handle the cube-by-cube SOP fold gives. *)
let test_cells_concurrent () =
  let man = Bdd.create_shared ~nvars () in
  let inputs =
    Array.of_list (List.map (build man) (List.filteri (fun i _ -> i < 4) pool))
  in
  let elaborate () =
    List.map (fun (c : Cell.t) -> Bdd.cover_with man c.Cell.logic inputs) Cell.all
  in
  let results = spawn_all (Array.init 4 (fun _ () -> elaborate ())) in
  let fold (c : Cell.t) =
    List.fold_left
      (fun acc cube -> Bdd.bor man acc (Bdd.cube_with man cube inputs))
      Bdd.bfalse
      (Logic2.Cover.cubes c.Cell.logic)
  in
  let expected = List.map fold Cell.all in
  Array.iteri
    (fun d handles ->
      check
        (Printf.sprintf "domain %d: compiled cells = SOP fold" d)
        true
        (List.equal (fun (a : Bdd.t) b -> a = b) handles expected))
    results;
  assert_canonical man

(* Stripe growth must not allocate per slot. One domain interns the
   2^15 minterms of 16 variables (about 65k fresh nodes, so each of the
   64 stripes doubles from 64 slots to 2k or more); the apply ops and
   node store allocate nothing young, and a plain-int stripe below 257
   slots is the only young array growth makes. So the minor-heap words
   are bounded by the stripe count. A table of boxed slots allocates
   two words per slot on every doubling, which scales with the node
   count and exceeds this bound about eight times over (plain-int
   stripes allocate about 25k words here, boxed slots about 540k). *)
let test_growth_allocation_bounded () =
  let bits = 16 in
  let man = Bdd.create_shared ~nvars:bits () in
  let w0 = Gc.minor_words () in
  for m = 0 to (1 lsl (bits - 1)) - 1 do
    let r = ref Bdd.btrue in
    for v = bits - 1 downto 0 do
      let lit = if (m lsr v) land 1 = 1 then Bdd.var man v else Bdd.nvar man v in
      r := Bdd.band man lit !r
    done
  done;
  let words = Gc.minor_words () -. w0 in
  check "at least 50k nodes" true (Bdd.num_nodes man >= 50_000);
  check "unique table grew 16-fold" true (Bdd.unique_capacity man >= 16 * 64 * 64);
  let bound = float_of_int (64 * 1024) in
  if words > bound then
    Alcotest.failf "stripe growth allocated %.0f minor words (bound %.0f)" words bound

(* ---------- jobs byte-identity over the fuzzed corpus ---------- *)

let corpus =
  (* The PR 4 fuzz generator, fixed seeds: the same corpus the fuzz
     smoke gate replays. *)
  List.filter_map
    (fun seed ->
      let spec = Fuzz.Gen.generate (Fuzz.Rng.create ~seed) in
      let net = Fuzz.Gen.network spec in
      (* SPCF needs at least one gate-driven output; the generator can
         emit wire-only specimens. *)
      if Network.num_nodes net = 0 then None else Some (seed, net))
    [ 1; 2; 3; 5; 8; 13; 21; 34 ]

let dag_bytes ctx (r : Spcf.Ctx.result) =
  r.Spcf.Ctx.outputs
  |> List.map (fun (n, _, sigma) ->
         let vars, lows, highs, root = Spcf.Parallel.export ctx.Spcf.Ctx.man sigma in
         let pp a = String.concat "," (List.map string_of_int (Array.to_list a)) in
         Printf.sprintf "%s[%s;%s;%s;%d]" n (pp vars) (pp lows) (pp highs) root)
  |> String.concat "|"

(* Σ functions (as canonical manager-independent DAG bytes) must be
   identical for jobs ∈ {1,2,4,8}; jobs > 1 runs in a shared-manager
   context. *)
let test_spcf_jobs_identical () =
  List.iter
    (fun (seed, net) ->
      let mc = Mapper.map net in
      let run jobs =
        let ctx = Spcf.Ctx.create ~shared:(jobs > 1) mc in
        let target = Spcf.Ctx.target_of_theta ctx 0.9 in
        let r = Spcf.Parallel.short_path ~jobs ctx ~target in
        dag_bytes ctx r
      in
      let base = run 1 in
      List.iter
        (fun jobs ->
          check_str
            (Printf.sprintf "seed %d: SPCF DAGs jobs=%d" seed jobs)
            base (run jobs))
        [ 2; 4; 8 ])
    corpus

(* The synthesized masking circuit — down to the emitted BLIF bytes —
   must not depend on the worker count. *)
let test_protect_jobs_identical () =
  List.iter
    (fun (seed, net) ->
      let blif jobs =
        let options = { Masking.Synthesis.default_options with jobs } in
        let m = Masking.Synthesis.synthesize ~options net in
        Blif.to_string (Mapped.network m.Masking.Synthesis.combined)
      in
      let base = blif 1 in
      List.iter
        (fun jobs ->
          check_str
            (Printf.sprintf "seed %d: protect BLIF jobs=%d" seed jobs)
            base (blif jobs))
        [ 2; 4; 8 ])
    corpus

let () =
  Alcotest.run "shared-bdd"
    [
      ( "hammer",
        [
          Alcotest.test_case "2 domains" `Quick (test_hammer 2);
          Alcotest.test_case "4 domains" `Quick (test_hammer 4);
          Alcotest.test_case "8 domains" `Quick (test_hammer 8);
          Alcotest.test_case "handles stable across growth" `Quick
            test_stable_across_growth;
          Alcotest.test_case "clear_caches is domain-global" `Quick
            test_clear_caches_shared;
          Alcotest.test_case "node wall on the shared table" `Quick
            test_shared_node_wall;
          Alcotest.test_case "compiled cells from concurrent domains" `Quick
            test_cells_concurrent;
          Alcotest.test_case "stripe growth allocation bounded by stripe count" `Quick
            test_growth_allocation_bounded;
        ] );
      ( "jobs-identity",
        [
          Alcotest.test_case "SPCF DAGs identical, jobs in {1,2,4,8}" `Quick
            test_spcf_jobs_identical;
          Alcotest.test_case "protect BLIF identical, jobs in {1,2,4,8}" `Quick
            test_protect_jobs_identical;
        ] );
    ]
