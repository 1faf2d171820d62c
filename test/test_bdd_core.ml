(* Property tests aimed at the packed BDD core: random operation
   sequences replayed against a truth-table reference — once on a
   default manager and once on a 4-entry pinned computed-table, so
   every cache eviction path is exercised — plus directed adversarial
   cases for unique-table growth/rehash stability and generation-based
   cache clearing. The complement-edge kernel is checked against
   exhaustive evaluation with operands in both polarities, with O(1)
   negation, the cofactor accessors, the stored-edge normal form, and
   compiled cell elaboration against the SOP fold. A fresh manager must
   also be cheap to create. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Truth-table reference ---------- *)

(* Functions over [nvars] variables as bitmask truth tables: bit i of
   the table is f(env_i) where env_i.(v) = (i lsr v) land 1. *)
let nvars = 5
let n_env = 1 lsl nvars
let full = (1 lsl n_env) - 1

let tt_var v =
  let r = ref 0 in
  for i = 0 to n_env - 1 do
    if (i lsr v) land 1 = 1 then r := !r lor (1 lsl i)
  done;
  !r

let tt_not f = lnot f land full
let tt_ite f g h = f land g lor (tt_not f land h)

let tt_restrict f v b =
  let r = ref 0 in
  for i = 0 to n_env - 1 do
    let j = if b then i lor (1 lsl v) else i land lnot (1 lsl v) in
    if (f lsr j) land 1 = 1 then r := !r lor (1 lsl i)
  done;
  !r

let tt_exists f v = tt_restrict f v false lor tt_restrict f v true
let popcount f = let c = ref 0 in for i = 0 to n_env - 1 do c := !c + ((f lsr i) land 1) done; !c

let envs =
  List.init n_env (fun i -> Array.init nvars (fun v -> (i lsr v) land 1 = 1))

(* ---------- Random operation sequences ---------- *)

(* Raw integer operands are interpreted modulo the current pool size at
   replay time, so any generated sequence is valid and shrinks freely. *)
type op =
  | Ite of int * int * int
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Not of int
  | Restrict of int * int * bool
  | Exists of int * int
  | Clear  (** generation-bump the computed table mid-sequence *)

let op_print = function
  | Ite (a, b, c) -> Printf.sprintf "ite %d %d %d" a b c
  | And (a, b) -> Printf.sprintf "and %d %d" a b
  | Or (a, b) -> Printf.sprintf "or %d %d" a b
  | Xor (a, b) -> Printf.sprintf "xor %d %d" a b
  | Not a -> Printf.sprintf "not %d" a
  | Restrict (a, v, b) -> Printf.sprintf "restrict %d x%d:=%b" a v b
  | Exists (a, v) -> Printf.sprintf "exists %d x%d" a v
  | Clear -> "clear-caches"

let op_gen =
  let open QCheck.Gen in
  let idx = int_bound 1000 in
  let v = int_bound (nvars - 1) in
  frequency
    [
      (3, map3 (fun a b c -> Ite (a, b, c)) idx idx idx);
      (2, map2 (fun a b -> And (a, b)) idx idx);
      (2, map2 (fun a b -> Or (a, b)) idx idx);
      (2, map2 (fun a b -> Xor (a, b)) idx idx);
      (1, map (fun a -> Not a) idx);
      (1, map3 (fun a x b -> Restrict (a, x, b)) idx v bool);
      (1, map2 (fun a x -> Exists (a, x)) idx v);
      (1, return Clear);
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

(* Replay [ops] on [man] and on the truth-table reference; the pool
   starts with the variables and every result is appended to it. *)
let replay man ops =
  let pool = ref [||] in
  let push b t = pool := Array.append !pool [| (b, t) |] in
  for v = 0 to nvars - 1 do
    push (Bdd.var man v) (tt_var v)
  done;
  let get i =
    let a = !pool in
    a.(i mod Array.length a)
  in
  List.iter
    (fun op ->
      match op with
      | Ite (a, b, c) ->
        let fa, ta = get a and fb, tb = get b and fc, tc = get c in
        push (Bdd.ite man fa fb fc) (tt_ite ta tb tc)
      | And (a, b) ->
        let fa, ta = get a and fb, tb = get b in
        push (Bdd.band man fa fb) (ta land tb)
      | Or (a, b) ->
        let fa, ta = get a and fb, tb = get b in
        push (Bdd.bor man fa fb) (ta lor tb)
      | Xor (a, b) ->
        let fa, ta = get a and fb, tb = get b in
        push (Bdd.bxor man fa fb) ((ta lxor tb) land full)
      | Not a ->
        let fa, ta = get a in
        push (Bdd.bnot man fa) (tt_not ta)
      | Restrict (a, v, b) ->
        let fa, ta = get a in
        push (Bdd.restrict man fa v b) (tt_restrict ta v b)
      | Exists (a, v) ->
        let fa, ta = get a in
        let vars = Array.init nvars (fun i -> i = v) in
        push (Bdd.exists man vars fa) (tt_exists ta v)
      | Clear -> Bdd.clear_caches man)
    ops;
  !pool

let agrees man (f, tt) =
  List.for_all
    (fun env ->
      let i =
        Array.to_list (Array.mapi (fun v b -> if b then 1 lsl v else 0) env)
        |> List.fold_left ( lor ) 0
      in
      Bdd.eval man f env = ((tt lsr i) land 1 = 1))
    envs
  && Extfloat.equal (Bdd.satcount man f)
       (Extfloat.of_float (float_of_int (popcount tt)))

let prop_replay_default =
  QCheck.Test.make ~name:"core: op replay vs truth tables (default cache)"
    ~count:300 arb_ops (fun ops ->
      let man = Bdd.create ~nvars () in
      Array.for_all (agrees man) (replay man ops))

(* A 4-entry computed table evicts on nearly every insert; correctness
   must not depend on what the cache remembers. *)
let prop_replay_tiny_cache =
  QCheck.Test.make ~name:"core: op replay vs truth tables (4-entry cache)"
    ~count:300 arb_ops (fun ops ->
      let man = Bdd.create ~cache_bits:2 ~nvars () in
      Array.for_all (agrees man) (replay man ops))

(* The same sequence on both managers must yield the same handles:
   hash-consed structure is independent of the computed-table size. *)
let prop_cache_size_invariance =
  QCheck.Test.make ~name:"core: handles independent of cache size" ~count:200
    arb_ops (fun ops ->
      let m1 = Bdd.create ~nvars () in
      let m2 = Bdd.create ~cache_bits:2 ~nvars () in
      let p1 = replay m1 ops and p2 = replay m2 ops in
      Array.for_all2 (fun (f1, _) (f2, _) -> f1 = f2) p1 p2)

(* ---------- Adversarial growth ---------- *)

(* x = y over two 13-bit vectors with all x's ordered before all y's:
   the canonical ROBDD must remember every x value, so it has more than
   2^13 internal nodes — well past the initial 4096-slot unique table
   (rehash triggers at 3/4 load) and the initial node-array capacity. *)
let eq_bits = 13

let build_eq man =
  let fs =
    List.init eq_bits (fun i ->
        Bdd.bxnor man (Bdd.var man i) (Bdd.var man (eq_bits + i)))
  in
  List.fold_left (Bdd.band man) Bdd.btrue fs

let test_growth_and_rehash () =
  let man = Bdd.create ~nvars:(2 * eq_bits) () in
  let cap0 = Bdd.unique_capacity man in
  check_int "initial capacity" 4096 cap0;
  let f = build_eq man in
  check "forced rehash" true (Bdd.unique_capacity man > cap0);
  check "forced node growth" true (Bdd.num_nodes man > 1 lsl eq_bits);
  check "satcount = 2^13" true
    (Extfloat.equal (Bdd.satcount man f) (Extfloat.pow2 eq_bits));
  (* Hash-consing stability across rehashes: rebuilding the same
     function in the same manager finds every node again. *)
  check "stable handle after rehash" true (build_eq man = f);
  (* The calling domain's computed cache grew from its 2^12 start with
     the misses. *)
  check "cache grew with table" true (Bdd.cache_capacity man > 1 lsl 12)

let test_fixed_cache_never_grows () =
  let man = Bdd.create ~cache_bits:2 ~nvars:(2 * eq_bits) () in
  let f = build_eq man in
  check_int "pinned cache" 4 (Bdd.cache_capacity man);
  check "pinned-cache result correct" true
    (Extfloat.equal (Bdd.satcount man f) (Extfloat.pow2 eq_bits))

let test_clear_caches_identity () =
  let man = Bdd.create ~nvars:8 () in
  let f = Bdd.bxor man (Bdd.var man 0) (Bdd.var man 5) in
  let g = Bdd.bor man (Bdd.var man 2) (Bdd.nvar man 7) in
  let r1 = Bdd.ite man f g (Bdd.bnot man g) in
  Bdd.clear_caches man;
  let r2 = Bdd.ite man f g (Bdd.bnot man g) in
  check "same handle after clear" true (r1 = r2);
  (* Many generations: the generation counter wraps safely. *)
  for _ = 1 to 10_000 do
    Bdd.clear_caches man
  done;
  check "same handle after 10k clears" true (Bdd.ite man f g (Bdd.bnot man g) = r1)

(* ---------- Complement-edge kernel ---------- *)

(* Test names carry "(shared)": every manager is the shared-memory one
   that several domains may grow. *)
let create nvars = Bdd.create ~nvars ()

(* A function of [n] variables as a truth table (row i assigns bit v of
   i to variable v), built in the manager by Shannon expansion. *)
let bdd_of_table man n table =
  let rec build v row =
    if v = n then if table.(row) then Bdd.btrue else Bdd.bfalse
    else
      Bdd.ite man (Bdd.var man v)
        (build (v + 1) (row lor (1 lsl v)))
        (build (v + 1) row)
  in
  build 0 0

let env_of n row = Array.init n (fun v -> (row lsr v) land 1 = 1)

let arb_tables =
  let open QCheck.Gen in
  let gen =
    int_range 1 8 >>= fun n ->
    let table = array_size (return (1 lsl n)) bool in
    map3 (fun a b c -> (n, a, b, c)) table table table
  in
  let show t =
    String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list t))
  in
  QCheck.make gen ~print:(fun (n, a, b, c) ->
      Printf.sprintf "n=%d f=%s g=%s h=%s" n (show a) (show b) (show c))

(* Each operand in both polarities, so complemented handles reach every
   entry point of the AND, XOR and ITE recursions. *)
let polarities man f = [ (f, false); (Bdd.bnot man f, true) ]

let prop_ops_vs_eval =
  QCheck.Test.make ~name:"kernel (shared): every op agrees with eval, <= 8 vars"
    ~count:60 arb_tables (fun (n, ta, tb, tc) ->
      let man = create n in
      let f = bdd_of_table man n ta and g = bdd_of_table man n tb in
      let h = bdd_of_table man n tc in
      let ok = ref true in
      let expect what r reference =
        for row = 0 to (1 lsl n) - 1 do
          if Bdd.eval man r (env_of n row) <> reference row then begin
            ok := false;
            QCheck.Test.fail_reportf "%s wrong at row %d" what row
          end
        done
      in
      List.iter
        (fun (f', nf) ->
          let fv row = ta.(row) <> nf in
          expect "bnot" (Bdd.bnot man f') (fun row -> not (fv row));
          List.iter
            (fun (g', ng) ->
              let gv row = tb.(row) <> ng in
              let bin name op spec =
                expect name (op man f' g') (fun r -> spec (fv r) (gv r))
              in
              bin "band" Bdd.band ( && );
              bin "bor" Bdd.bor ( || );
              bin "bxor" Bdd.bxor ( <> );
              bin "bxnor" Bdd.bxnor ( = );
              bin "bimply" Bdd.bimply (fun a b -> (not a) || b);
              List.iter
                (fun (h', nh) ->
                  let hv row = tc.(row) <> nh in
                  expect "ite" (Bdd.ite man f' g' h') (fun r ->
                      if fv r then gv r else hv r);
                  (* Operands related to f exercise the standard-triple
                     simplifications (g = f, h = not f, ...). *)
                  expect "ite f f h" (Bdd.ite man f' f' h') (fun r -> fv r || hv r);
                  expect "ite f g (not f)"
                    (Bdd.ite man f' g' (Bdd.bnot man f'))
                    (fun r -> (not (fv r)) || gv r);
                  expect "ite f g (not g)"
                    (Bdd.ite man f' g' (Bdd.bnot man g'))
                    (fun r -> fv r = gv r))
                (polarities man h))
            (polarities man g))
        (polarities man f);
      !ok)

let prop_bnot_free =
  QCheck.Test.make ~name:"kernel (shared): bnot allocates no node, is an involution"
    ~count:60 arb_tables (fun (n, ta, _, _) ->
      let man = create n in
      let f = bdd_of_table man n ta in
      let before = Bdd.num_nodes man in
      let nf = Bdd.bnot man f in
      Bdd.num_nodes man = before
      && Bdd.bnot man nf = f
      && nf <> f
      && Bdd.num_nodes man = before)

(* The accessors see the plain ROBDD: low_of/high_of of a complemented
   handle are the cofactors of the complemented function. *)
let prop_cofactors =
  QCheck.Test.make ~name:"kernel (shared): low_of/high_of are cofactors"
    ~count:60 arb_tables (fun (n, ta, _, _) ->
      let man = create n in
      let f = bdd_of_table man n ta in
      List.for_all
        (fun (f', neg) ->
          Bdd.is_terminal f'
          ||
          let v = Bdd.var_of man f' in
          let lo = Bdd.low_of man f' and hi = Bdd.high_of man f' in
          v = Bdd.var_of man (Bdd.bnot man f')
          && lo = Bdd.restrict man f' v false
          && hi = Bdd.restrict man f' v true
          && lo <> hi
          && List.for_all
               (fun row ->
                 let env = env_of n row in
                 let at b =
                   let e = Array.copy env in
                   e.(v) <- b;
                   ta.(List.fold_left ( lor ) 0
                         (List.init n (fun u -> if e.(u) then 1 lsl u else 0)))
                   <> neg
                 in
                 Bdd.eval man lo env = at false && Bdd.eval man hi env = at true)
               (List.init (1 lsl n) Fun.id))
        (polarities man f))

(* Stored high edges are regular. *)
let prop_high_regular =
  QCheck.Test.make ~name:"kernel (shared): stored high edges are regular"
    ~count:40 arb_tables (fun (n, ta, tb, tc) ->
      let man = create n in
      let f = bdd_of_table man n ta and g = bdd_of_table man n tb in
      ignore (Bdd.bxor man (Bdd.band man f g) (bdd_of_table man n tc) : Bdd.t);
      let ok = ref true in
      Bdd.iter_nodes man (fun node _ lo hi ->
          let odd (c : Bdd.t) = (c :> int) land 1 <> 0 in
          if odd node || odd hi || lo = hi then ok := false);
      !ok)

(* ---------- Compiled cell elaboration ---------- *)

(* The reference: the cube-by-cube SOP fold that covers of more than 5
   variables still take. *)
let sop_fold man cover inputs =
  List.fold_left
    (fun acc c -> Bdd.bor man acc (Bdd.cube_with man c inputs))
    Bdd.bfalse (Logic2.Cover.cubes cover)

(* Inputs are arbitrary functions (not just variables), in both
   polarities, so the programs run on complemented handles too. *)
let random_inputs man k seed =
  let st = Random.State.make [| seed |] in
  Array.init k (fun i ->
      let a = Bdd.var man (Random.State.int st 8) in
      let b = Bdd.var man (Random.State.int st 8) in
      let f =
        match (i + seed) mod 4 with
        | 0 -> a
        | 1 -> Bdd.band man a b
        | 2 -> Bdd.bxor man a b
        | _ -> Bdd.bor man a (Bdd.bnot man b)
      in
      if Random.State.bool st then Bdd.bnot man f else f)

let test_cells_compiled () =
  let man = create 8 in
  List.iter
    (fun (cell : Cell.t) ->
      for seed = 0 to 7 do
        let inputs = random_inputs man cell.Cell.arity seed in
        let expect = sop_fold man cell.Cell.logic inputs in
        check_int
          (Printf.sprintf "%s seed %d" cell.Cell.cname seed)
          (expect :> int)
          (Bdd.cover_with man cell.Cell.logic inputs :> int)
      done)
    Cell.all

let arb_cover =
  let open QCheck.Gen in
  let gen =
    int_range 1 6 >>= fun k ->
    let lit = int_bound 2 in
    let cube = list_repeat k lit in
    map2
      (fun cubes seed -> (k, cubes, seed))
      (list_size (int_bound 6) cube)
      (int_bound 1000)
  in
  QCheck.make gen ~print:(fun (k, cubes, seed) ->
      Printf.sprintf "k=%d seed=%d cubes=[%s]" k seed
        (String.concat ";"
           (List.map (fun c -> String.concat "" (List.map string_of_int c)) cubes)))

let cover_of k cubes =
  Logic2.Cover.of_cubes k
    (List.map
       (fun lits ->
         Logic2.Cube.make k
           (List.concat
              (List.mapi
                 (fun v l ->
                   if l = 0 then [ (v, true) ] else if l = 1 then [ (v, false) ] else [])
                 lits)))
       cubes)

(* 1-5 variables run the compiled program; 6 takes the fold. *)
let prop_cover_compiled =
  QCheck.Test.make ~name:"cells (shared): compiled cover_with = SOP fold, 1-6 vars"
    ~count:300 arb_cover (fun (k, cubes, seed) ->
      let man = create 8 in
      let cover = cover_of k cubes in
      let inputs = random_inputs man k seed in
      Bdd.cover_with man cover inputs = sop_fold man cover inputs)

(* The recursions keep their state in registers: once every node
   exists, recomputing AND, XOR and ITE from a cleared cache allocates
   no heap words. *)
let test_apply_allocation_free () =
  let man = Bdd.create ~nvars:(2 * eq_bits) () in
  let f = build_eq man in
  let g = Bdd.bxor man (Bdd.var man 3) (Bdd.var man (eq_bits + 5)) in
  let ops () =
    ignore (Bdd.band man f g : Bdd.t);
    ignore (Bdd.bxor man f g : Bdd.t);
    ignore (Bdd.ite man (Bdd.var man 1) f g : Bdd.t)
  in
  ops ();
  let words body =
    Bdd.clear_caches man;
    let w0 = Gc.minor_words () in
    body ();
    Gc.minor_words () -. w0
  in
  let baseline = words ignore in
  check "no allocation" true (words ops = baseline)

(* Creating a manager is cheap: a daemon builds one per circuit and
   per eco snapshot, so a fixed per-manager allocation is paid on every
   cache miss. One 2^12-node chunk, a 16-slot spine and 64 stripes of
   64 slots come to about 17k words. *)
let test_create_cheap () =
  ignore (Bdd.create ~nvars:40 () : Bdd.man);
  let b0 = Gc.allocated_bytes () in
  let man = Bdd.create ~nvars:40 () in
  let words = (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8) in
  ignore (Sys.opaque_identity man : Bdd.man);
  if words >= 32_768. then
    Alcotest.failf "Bdd.create ~nvars:40 allocated %.0f words (bound 32768)" words

(* Deterministic QCheck seeding (no wall-clock self-init): the state
   comes from Fuzz.Rng.qcheck_state, overridable via QCHECK_SEED. *)
let qsuite name tests =
  let rand = Fuzz.Rng.qcheck_state () in
  (name, List.map (QCheck_alcotest.to_alcotest ~rand) tests)

let () =
  Alcotest.run "bdd-core"
    [
      qsuite "replay"
        [ prop_replay_default; prop_replay_tiny_cache; prop_cache_size_invariance ];
      ( "adversarial",
        [
          Alcotest.test_case "growth and rehash" `Quick test_growth_and_rehash;
          Alcotest.test_case "fixed cache never grows" `Quick
            test_fixed_cache_never_grows;
          Alcotest.test_case "clear_caches identity" `Quick
            test_clear_caches_identity;
          Alcotest.test_case "apply ops allocate nothing" `Quick
            test_apply_allocation_free;
          Alcotest.test_case "fresh manager allocates < 32Ki words" `Quick
            test_create_cheap;
        ] );
      qsuite "kernel" [ prop_ops_vs_eval; prop_bnot_free; prop_cofactors; prop_high_regular ];
      ( "cells",
        [
          Alcotest.test_case "every Cell.all cover compiled (shared)" `Quick
            test_cells_compiled;
        ] );
      qsuite "cells-prop" [ prop_cover_compiled ];
    ]
