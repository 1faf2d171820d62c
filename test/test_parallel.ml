(* Tests for the domain-parallel SPCF driver: the cross-manager DAG
   transport round-trips arbitrary functions, and running with several
   worker domains yields exactly the sequential results — same critical
   outputs in the same order, same per-output SPCFs, same synthesized
   masking circuit. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- Export / import round-trip ---------- *)

type expr = Var of int | Not of expr | And of expr * expr | Xor of expr * expr

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

let nvars = 6
let envs = List.init (1 lsl nvars) (fun i -> Array.init nvars (fun v -> (i lsr v) land 1 = 1))

let expr_gen =
  let open QCheck.Gen in
  sized_size (int_bound 8)
  @@ fix (fun self n ->
         if n <= 0 then map (fun v -> Var v) (int_bound (nvars - 1))
         else
           frequency
             [
               (1, map (fun v -> Var v) (int_bound (nvars - 1)));
               (2, map (fun e -> Not e) (self (n - 1)));
               (2, map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2)));
             ])

let rec expr_print = function
  | Var v -> Printf.sprintf "x%d" v
  | Not e -> Printf.sprintf "!(%s)" (expr_print e)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (expr_print a) (expr_print b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (expr_print a) (expr_print b)

let prop_roundtrip =
  QCheck.Test.make ~name:"transport: export/import preserves the function"
    ~count:300
    (QCheck.make ~print:expr_print expr_gen)
    (fun e ->
      let m1 = Bdd.create ~nvars () in
      let m2 = Bdd.create ~nvars () in
      let f = build m1 e in
      let g = Spcf.Parallel.import m2 (Spcf.Parallel.export m1 f) in
      List.for_all (fun env -> Bdd.eval m2 g env = eval_expr env e) envs)

let prop_roundtrip_same_manager =
  QCheck.Test.make ~name:"transport: re-import into the source manager is identity"
    ~count:300
    (QCheck.make ~print:expr_print expr_gen)
    (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build man e in
      Spcf.Parallel.import man (Spcf.Parallel.export man f) = f)

(* ---------- Determinism: jobs = 4 vs jobs = 1 ---------- *)

let circuits = [ "i1"; "cmb"; "x2" ]

(* Per-output SPCFs live in different managers for the two runs, so the
   comparison is semantic: same names in the same order, same minterm
   counts per output and for the union. *)
let same_result (ctx1, (r1 : Spcf.Ctx.result)) (ctx4, (r4 : Spcf.Ctx.result)) =
  let names r = List.map (fun (n, _, _) -> n) r.Spcf.Ctx.outputs in
  check_str "output order" (String.concat "," (names r1)) (String.concat "," (names r4));
  List.iter2
    (fun (n, _, s1) (_, _, s4) ->
      check (n ^ " satcount") true
        (Extfloat.equal
           (Bdd.satcount ctx1.Spcf.Ctx.man s1)
           (Bdd.satcount ctx4.Spcf.Ctx.man s4)))
    r1.Spcf.Ctx.outputs r4.Spcf.Ctx.outputs;
  check "union satcount" true
    (Extfloat.equal (Spcf.Ctx.count ctx1 r1) (Spcf.Ctx.count ctx4 r4))

let run_spcf algo jobs name =
  let mc = Mapper.map (Suite.load name) in
  let ctx = Spcf.Ctx.create mc in
  let target = Spcf.Ctx.target_of_theta ctx 0.9 in
  let r =
    match algo with
    | `Short -> Spcf.Parallel.short_path ~jobs ctx ~target
    | `Path -> Spcf.Parallel.path_based ~jobs ctx ~target
  in
  (ctx, r)

let test_spcf_determinism algo () =
  List.iter
    (fun name -> same_result (run_spcf algo 1 name) (run_spcf algo 4 name))
    circuits

(* Every context takes workers: jobs=2 on a plain [Ctx.create]
   context computes in the same manager as jobs=1, so its Σ handles
   are the jobs=1 handles. *)
let test_jobs2_plain_context () =
  let mc = Mapper.map (Suite.load "x2") in
  let ctx = Spcf.Ctx.create mc in
  let target = Spcf.Ctx.target_of_theta ctx 0.5 in
  check "several critical outputs" true
    (Array.length (Sta.critical_outputs ctx.Spcf.Ctx.sta ~target) > 1);
  let sigmas jobs =
    List.map
      (fun (o, _, (s : Bdd.t)) -> (o, (s :> int)))
      (Spcf.Parallel.short_path ~jobs ctx ~target).Spcf.Ctx.outputs
  in
  let r1 = sigmas 1 in
  check "jobs=2 = jobs=1, handle for handle" true (sigmas 2 = r1)

(* A worker that exhausts the shared budget cancels the team, and the
   caller sees the root cause, not the teammates' Cancelled. The node
   quota leaves the context's global BDDs room but not the SPCFs. *)
let test_budget_cancels_team () =
  let mc = Mapper.map (Suite.load "x2") in
  let base = Bdd.num_nodes (Spcf.Ctx.create mc).Spcf.Ctx.man in
  let stopped what run =
    let budget = Budget.create ~max_nodes:(base + 50) () in
    (match run budget with
    | () -> Alcotest.fail (what ^ ": expected the node quota to stop the run")
    | exception Budget.Budget_exceeded r ->
      check (what ^ ": root cause surfaces") true (r = Budget.Nodes));
    check (what ^ ": the team was cancelled") true (Budget.cancelled budget)
  in
  stopped "spcf" (fun budget ->
      let ctx = Spcf.Ctx.create ~budget mc in
      let target = Spcf.Ctx.target_of_theta ctx 0.5 in
      check "several critical outputs" true
        (Array.length (Sta.critical_outputs ctx.Spcf.Ctx.sta ~target) > 1);
      ignore (Spcf.Parallel.short_path ~jobs:4 ctx ~target : Spcf.Ctx.result));
  (* ECO's snapshot fans its per-output SPCFs through the same map. *)
  stopped "eco" (fun budget ->
      ignore (Eco.snapshot ~theta:0.5 ~jobs:4 ~budget (Eco.design_of_mapped mc) : Eco.t))

(* Downstream synthesis + verification must be unaffected by the worker
   count: every verdict and every overhead figure matches. *)
let test_synthesis_determinism () =
  List.iter
    (fun name ->
      let net = Suite.load name in
      let run jobs =
        let options = { Masking.Synthesis.default_options with jobs } in
        Masking.Verify.check (Masking.Synthesis.synthesize ~options net)
      in
      let r1 = run 1 and r4 = run 4 in
      check (name ^ " findings") true
        (r1.Masking.Verify.findings = r4.Masking.Verify.findings);
      check_int (name ^ " critical outputs") r1.Masking.Verify.critical_outputs
        r4.Masking.Verify.critical_outputs;
      check (name ^ " critical minterms") true
        (Extfloat.equal r1.Masking.Verify.critical_minterms
           r4.Masking.Verify.critical_minterms);
      Alcotest.(check (float 1e-9))
        (name ^ " area overhead") r1.Masking.Verify.area_overhead_pct
        r4.Masking.Verify.area_overhead_pct;
      Alcotest.(check (float 1e-9))
        (name ^ " coverage pct") r1.Masking.Verify.coverage_pct
        r4.Masking.Verify.coverage_pct)
    circuits

(* ---------- Observability composes with parallelism ---------- *)

let c_late_calls = Obs.counter "spcf.lateness.calls"
let c_late_memo = Obs.counter "spcf.lateness.memo_hits"

let with_obs_collect f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

(* Obs collection no longer forces the sequential path: with collection
   enabled, worker snapshots merge into the main registry and the jobs
   knob still must not change results. *)
let test_obs_parallel_results () =
  with_obs_collect (fun () ->
      let c1, r1 = run_spcf `Short 1 "i1" in
      let c4, r4 = run_spcf `Short 4 "i1" in
      same_result (c1, r1) (c4, r4))

(* The path-based algorithm uses a fresh lateness memo per output, so
   its counters partition exactly over any round-robin assignment: the
   merged totals under k workers must equal the sequential totals. *)
let test_obs_merged_counters () =
  List.iter
    (fun name ->
      let totals jobs =
        with_obs_collect (fun () ->
            ignore (run_spcf `Path jobs name);
            (Obs.counter_value c_late_calls, Obs.counter_value c_late_memo))
      in
      let calls1, memo1 = totals 1 in
      check "sequential run recorded lateness calls" true (calls1 > 0);
      List.iter
        (fun jobs ->
          let calls_k, memo_k = totals jobs in
          check_int
            (Printf.sprintf "%s lateness.calls jobs=%d" name jobs)
            calls1 calls_k;
          check_int
            (Printf.sprintf "%s lateness.memo_hits jobs=%d" name jobs)
            memo1 memo_k)
        [ 2; 4; 8 ])
    circuits

(* Worker snapshots land with per-domain attribution: a parallel run
   must register at least one "worker N" breakdown entry whose counters
   sum (with main's share) to the merged registry totals. *)
let test_obs_domain_breakdown () =
  with_obs_collect (fun () ->
      ignore (run_spcf `Path 4 "x2");
      let breakdown = Obs.domain_breakdown () in
      check "has worker entries" true (List.length breakdown >= 1);
      List.iter
        (fun (label, _) ->
          check (label ^ " labelled as worker") true
            (String.length label >= 6 && String.sub label 0 6 = "worker"))
        breakdown;
      let workers_total =
        List.fold_left
          (fun acc (_, counters) ->
            acc
            + Option.value ~default:0
                (List.assoc_opt "spcf.lateness.calls" counters))
          0 breakdown
      in
      (* Every lateness call happens inside a worker domain, so the
         attribution must account for the full merged total. *)
      check_int "breakdown accounts for all lateness calls"
        (Obs.counter_value c_late_calls)
        workers_total)

(* The exported SPCF DAGs are a canonical, manager-independent encoding
   (postorder over the ROBDD): for a fixed circuit they must be
   byte-identical across every worker count, with collection enabled. *)
let dag_bytes (ctx, (r : Spcf.Ctx.result)) =
  r.Spcf.Ctx.outputs
  |> List.map (fun (n, _, sigma) ->
         let vars, lows, highs, root =
           Spcf.Parallel.export ctx.Spcf.Ctx.man sigma
         in
         let pp a =
           String.concat "," (List.map string_of_int (Array.to_list a))
         in
         Printf.sprintf "%s[%s;%s;%s;%d]" n (pp vars) (pp lows) (pp highs) root)
  |> String.concat "|"

let test_obs_dag_identical () =
  with_obs_collect (fun () ->
      List.iter
        (fun name ->
          let base = dag_bytes (run_spcf `Short 1 name) in
          List.iter
            (fun jobs ->
              check_str
                (Printf.sprintf "%s exported DAG jobs=%d" name jobs)
                base
                (dag_bytes (run_spcf `Short jobs name)))
            [ 2; 4; 8 ])
        circuits)

(* ---------- The calling domain as worker 0 ---------- *)

(* A worker's exception surfaces only once every worker has returned:
   a team-mate left running would keep writing into the context's manager
   after the caller moved on. The failing worker raises as soon as its
   team-mate has started; the team-mate then keeps working for 50 ms
   before it flags that its [f] returned. Two shapes: the caller's own
   share 0 fails (k = 2), and a spawned worker fails ahead of a later
   one (k = 3). *)
let test_map_joins_before_raise () =
  let ctx = Spcf.Ctx.create (Mapper.map (Suite.load "cmb")) in
  List.iter
    (fun (jobs, failing) ->
      let started = Atomic.make false and finished = Atomic.make false in
      let f chunk =
        if chunk.(0) = failing then begin
          while not (Atomic.get started) do
            Domain.cpu_relax ()
          done;
          failwith "share failed"
        end
        else begin
          if chunk.(0) = jobs - 1 then begin
            Atomic.set started true;
            let t0 = Obs.now () in
            while Obs.now () -. t0 < 0.05 do
              Domain.cpu_relax ()
            done;
            Atomic.set finished true
          end;
          Array.to_list chunk
        end
      in
      let what = Printf.sprintf "jobs=%d, share %d fails" jobs failing in
      match Spcf.Parallel.map ctx ~jobs (Array.init jobs Fun.id) f with
      | _ -> Alcotest.fail (what ^ ": expected the share's Failure")
      | exception Failure msg ->
        check_str (what ^ ": the share's own exception") "share failed" msg;
        check (what ^ ": raised after the last worker's f returned") true
          (Atomic.get finished))
    [ (2, 0); (3, 1) ]

(* ---------- Helper domains persist across calls ---------- *)

let squares chunk = Array.to_list (Array.map (fun i -> i * i) chunk)
let self_id () = (Domain.self () :> int)

(* Share 1 of two consecutive calls on one domain runs on the same
   helper, and that helper is not the caller. *)
let test_helpers_reused () =
  let ctx = Spcf.Ctx.create (Mapper.map (Suite.load "cmb")) in
  let where () =
    Spcf.Parallel.map ctx ~jobs:2 [| 0; 1 |] (fun chunk ->
        List.map (fun _ -> self_id ()) (Array.to_list chunk))
  in
  match (where (), where ()) with
  | [ c1; h1 ], [ c2; h2 ] ->
    check_int "share 0 runs on the caller" (self_id ()) c1;
    check_int "share 0 runs on the caller again" c1 c2;
    check "share 1 runs on a helper" true (h1 <> c1);
    check_int "share 1 runs on the same helper both times" h1 h2
  | _ -> Alcotest.fail "expected two results per call"

(* A share that raises is caught inside its helper, which then parks
   again: the next call on the same domain completes, with the jobs-1
   answer, on the same helper. *)
let test_raise_keeps_team () =
  let ctx = Spcf.Ctx.create (Mapper.map (Suite.load "cmb")) in
  let items = Array.init 7 Fun.id in
  let helper = ref (-1) in
  let f chunk =
    if chunk.(0) = 1 then helper := self_id ();
    squares chunk
  in
  ignore (Spcf.Parallel.map ctx ~jobs:2 items f : int list);
  let first = !helper in
  (match
     Spcf.Parallel.map ctx ~jobs:2 items (fun chunk ->
         if chunk.(0) = 1 then failwith "share 1 failed" else squares chunk)
   with
  | _ -> Alcotest.fail "expected share 1's Failure"
  | exception Failure msg -> check_str "share 1's own exception" "share 1 failed" msg);
  check "next call = jobs 1" true
    (Spcf.Parallel.map ctx ~jobs:2 items f = Spcf.Parallel.map ctx ~jobs:1 items f);
  check_int "share 1 still runs on the same helper" first !helper

(* A map called from inside share 0 finds its domain's team busy: it
   runs on the calling domain alone and still gives the jobs-1 answer,
   and the outer call's helper finishes its own share. *)
let test_nested_map () =
  let ctx = Spcf.Ctx.create (Mapper.map (Suite.load "cmb")) in
  let items = Array.init 5 Fun.id in
  let inner = ref [] in
  let outer =
    Spcf.Parallel.map ctx ~jobs:2 items (fun chunk ->
        if chunk.(0) = 0 then inner := Spcf.Parallel.map ctx ~jobs:2 items squares;
        squares chunk)
  in
  check "outer = jobs 1" true (outer = squares items);
  check "inner = jobs 1" true (!inner = squares items)

(* A hundred and thirty short-lived domains, one after another, each
   call a jobs-4 map and exit. Each owner spawns at least one helper,
   so its map runs on [min 4 (max 2 cores)] domains, and its exit joins
   them. A leaked helper would stay parked; past the runtime's cap of
   128 domains a later owner could spawn none and would run its map
   alone. *)
let test_owner_exit_joins () =
  let ctx = Spcf.Ctx.create (Mapper.map (Suite.load "cmb")) in
  let items = Array.init 8 Fun.id in
  let expected = squares items in
  let domains = min 4 (max 2 (Domain.recommended_domain_count ())) in
  for i = 1 to 130 do
    let got =
      Domain.join
        (Domain.spawn (fun () ->
             Spcf.Parallel.map ctx ~jobs:4 items (fun chunk ->
                 List.map (fun x -> (x * x, self_id ())) (Array.to_list chunk))))
    in
    check (Printf.sprintf "owner %d: results" i) true (List.map fst got = expected);
    check_int
      (Printf.sprintf "owner %d: domains" i)
      domains
      (List.length (List.sort_uniq compare (List.map snd got)))
  done;
  check_int "a domain still spawns" 1 (Domain.join (Domain.spawn (fun () -> 1)))

(* A team keeps at most one helper per core beyond its owner (and at
   least one): a jobs-64 map runs its 64 shares on at most that many
   domains, still gives the jobs-1 answer, and leaves room for another
   domain's jobs-64 map and a spawn. Kept helpers up to k − 1 would
   leave 63 domains parked in the caller. *)
let test_helpers_bounded () =
  let ctx = Spcf.Ctx.create (Mapper.map (Suite.load "cmb")) in
  let items = Array.init 64 Fun.id in
  let at_most = max 2 (Domain.recommended_domain_count ()) in
  let where () =
    Spcf.Parallel.map ctx ~jobs:64 items (fun chunk ->
        List.map (fun i -> (i * i, self_id ())) (Array.to_list chunk))
  in
  let check_run what rs =
    check (what ^ ": results") true (List.map fst rs = squares items);
    check
      (Printf.sprintf "%s: at most %d domains" what at_most)
      true
      (List.length (List.sort_uniq compare (List.map snd rs)) <= at_most)
  in
  check_run "caller" (where ());
  check_run "second owner" (Domain.join (Domain.spawn where));
  check_int "a domain still spawns" 1 (Domain.join (Domain.spawn (fun () -> 1)))

(* Twenty traced jobs-2 runs into one registry, never reset: each run
   adds exactly one "worker 1" and one "worker 2" row, the rows account
   for every lateness count the run added (all of them happen inside
   workers), and no counter's per-run increment grows: the lateness
   counts repeat exactly, every other count stays within 2x of run 1's
   (the [bdd.shared.*] contention probes, which count lock waits and
   races, are timing and left out). Share 0 merging the caller's own
   registry back into itself would break all three. *)
let test_obs_repeated_runs () =
  let late = [ "spcf.lateness.calls"; "spcf.lateness.memo_hits" ] in
  with_obs_collect (fun () ->
      let totals () = Obs.registered_counters () in
      let delta before after =
        List.map
          (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
          after
      in
      let first = ref [] in
      for run = 1 to 20 do
        let before = totals () and rows_before = List.length (Obs.domain_breakdown ()) in
        ignore (run_spcf `Path 2 "x2");
        let added = delta before (totals ()) in
        let rows =
          List.filteri (fun i _ -> i >= rows_before) (Obs.domain_breakdown ())
        in
        let tag what = Printf.sprintf "run %d: %s" run what in
        check_str (tag "worker rows") "worker 1,worker 2"
          (String.concat "," (List.map fst rows));
        List.iter
          (fun k ->
            let in_rows =
              List.fold_left
                (fun acc (_, cs) -> acc + Option.value ~default:0 (List.assoc_opt k cs))
                0 rows
            in
            check_int (tag (k ^ " = sum of rows")) (List.assoc k added) in_rows)
          late;
        if run = 1 then first := added
        else
          List.iter
            (fun (k, v) ->
              let v1 = Option.value ~default:0 (List.assoc_opt k !first) in
              if List.mem k late then check_int (tag (k ^ " per run")) v1 v
              else if v > 2 * v1 && not (String.starts_with ~prefix:"bdd.shared." k) then
                Alcotest.failf "run %d: %s grew from %d to %d per run" run k v1 v)
            added
      done)

(* ---------- The team-shared stability memo ---------- *)

(* Σ at jobs 2 and 4 equals jobs 1 on every suite circuit at θ 0.5 and
   0.9, through the SPCF driver and through ECO's snapshot; both run
   the short-path workers over one team memo. A snapshot also extracts
   every Σ's ISOP cover, which has no budget: at θ 0.5 the covers of
   these six circuits run past 2 GiB, so their snapshots are compared
   at θ 0.9 only. *)
let cover_explodes_at_half =
  [ "apex6"; "sparc_ifu_dec"; "sparc_ifu_ifqdp"; "sparc_ifu_dcl"; "lsu_stb_ctl";
    "sparc_exu_ecl" ]

let test_team_memo_sigmas () =
  let snapshot_bytes jobs mc theta =
    let snap = Eco.snapshot ~theta ~jobs (Eco.design_of_mapped mc) in
    List.map
      (fun (n, _, sigma) -> (n, Spcf.Parallel.export snap.Eco.ctx.Spcf.Ctx.man sigma))
      snap.Eco.sigmas
  in
  List.iter
    (fun name ->
      let mc = Mapper.map (Suite.load name) in
      List.iter
        (fun theta ->
          let spcf jobs =
            let ctx = Spcf.Ctx.create mc in
            let target = Spcf.Ctx.target_of_theta ctx theta in
            dag_bytes (ctx, Spcf.Parallel.short_path ~jobs ctx ~target)
          in
          let with_eco = theta > 0.5 || not (List.mem name cover_explodes_at_half) in
          let base = spcf 1 in
          let eco_base = if with_eco then snapshot_bytes 1 mc theta else [] in
          List.iter
            (fun jobs ->
              let tag what =
                Printf.sprintf "%s θ=%.1f jobs=%d: %s" name theta jobs what
              in
              check_str (tag "Σ") base (spcf jobs);
              if with_eco then
                check (tag "Eco.snapshot Σ") true
                  (snapshot_bytes jobs mc theta = eco_base))
            [ 2; 4 ])
        [ 0.5; 0.9 ])
    Suite.names

(* The set of (signal, value, budget) keys the recursion visits does not
   depend on which worker visits it, so the team memo ends up holding
   exactly the keys the sequential run missed on — each one computed,
   for the team, about once. The sequential miss count is the number of
   recursion-depth samples (one per miss). *)
let test_team_memo_keys () =
  let h_depth = Obs.histogram "spcf.recursion_depth" in
  List.iter
    (fun name ->
      let mc = Mapper.map (Suite.load name) in
      let keys jobs =
        let ctx = Spcf.Ctx.create mc in
        let target = Spcf.Ctx.target_of_theta ctx 0.5 in
        let memo = Spcf.Exact.Memo.create ~shared:(jobs > 1) in
        let outputs = Sta.critical_outputs ctx.Spcf.Ctx.sta ~target in
        let target_units = Spcf.Ctx.units_of_target target in
        ignore
          (Spcf.Parallel.map ctx ~jobs outputs (fun outputs ->
               Spcf.Exact.sigmas ~memo ctx ~opts:Spcf.Exact.proposed_options
                 ~outputs ~target_units)
            : (string * Network.signal * Bdd.t) list);
        Spcf.Exact.Memo.length memo
      in
      let misses, keys1 =
        with_obs_collect (fun () ->
            let k = keys 1 in
            ((Obs.histogram_stats h_depth).Obs.hn, k))
      in
      check (name ^ ": the sequential run misses") true (misses > 0);
      check_int (name ^ ": jobs=1 keys = misses") misses keys1;
      List.iter
        (fun jobs ->
          check_int (Printf.sprintf "%s: jobs=%d team keys = misses" name jobs) misses
            (keys jobs))
        [ 2; 4 ])
    [ "i1"; "x2"; "C432"; "C880"; "k2"; "apex6" ]

(* Deterministic QCheck seeding (no wall-clock self-init): the state
   comes from Fuzz.Rng.qcheck_state, overridable via QCHECK_SEED. *)
let qsuite name tests =
  let rand = Fuzz.Rng.qcheck_state () in
  (name, List.map (QCheck_alcotest.to_alcotest ~rand) tests)

let () =
  Alcotest.run "spcf-parallel"
    [
      qsuite "transport" [ prop_roundtrip; prop_roundtrip_same_manager ];
      ( "determinism",
        [
          Alcotest.test_case "short-path jobs=4 = jobs=1" `Quick
            (test_spcf_determinism `Short);
          Alcotest.test_case "path-based jobs=4 = jobs=1" `Quick
            (test_spcf_determinism `Path);
          Alcotest.test_case "synthesis jobs=4 = jobs=1" `Quick
            test_synthesis_determinism;
          Alcotest.test_case "jobs=2 on a plain context = jobs=1" `Quick
            test_jobs2_plain_context;
          Alcotest.test_case "budget exhaustion cancels the team" `Quick
            test_budget_cancels_team;
          Alcotest.test_case "map joins every worker before raising" `Quick
            test_map_joins_before_raise;
          Alcotest.test_case "team memo: Σ jobs in {2,4} = jobs=1, suite" `Slow
            test_team_memo_sigmas;
          Alcotest.test_case "team memo keys = sequential misses" `Quick
            test_team_memo_keys;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "helpers are reused" `Quick test_helpers_reused;
          Alcotest.test_case "a raising share leaves the team usable" `Quick
            test_raise_keeps_team;
          Alcotest.test_case "a nested map runs on its caller" `Quick test_nested_map;
          Alcotest.test_case "owner exit joins its helpers" `Quick test_owner_exit_joins;
          Alcotest.test_case "a team keeps at most one helper per core" `Quick
            test_helpers_bounded;
        ] );
      ( "observability",
        [
          Alcotest.test_case "obs-enabled parallel results" `Quick
            test_obs_parallel_results;
          Alcotest.test_case "merged counters = sequential totals" `Quick
            test_obs_merged_counters;
          Alcotest.test_case "per-domain attribution" `Quick
            test_obs_domain_breakdown;
          Alcotest.test_case "exported DAGs byte-identical, jobs in {1,2,4,8}"
            `Quick test_obs_dag_identical;
          Alcotest.test_case "20 traced jobs=2 runs: rows, sums, no growth" `Quick
            test_obs_repeated_runs;
        ] );
    ]
