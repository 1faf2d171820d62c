(* Domain-parallel SPCF computation (OCaml 5 Domains).

   The per-output SPCFs Σ_y are independent: each one is a function of
   the (immutable) mapped circuit, the delay model and the target only.
   With [jobs > 1] all workers compute directly in the context's
   concurrent BDD manager and return node handles. Subgraphs common to
   several output cones — exactly the reconvergent logic that makes
   table1 circuits expensive — are interned once instead of once per
   worker, and no export/import pass exists at all.

   The result is the same function set the sequential algorithms
   produce — ROBDDs are canonical, and every consumer (satcount, ISOP
   extraction, synthesis) is a function of the BDD semantics, not of
   node numbering. [jobs = 1] (the default) bypasses all of this and
   runs the sequential algorithm unchanged, keeping single-job runs
   bit-for-bit identical to the pre-parallel code path.

   The calling domain is worker 0 and spawns the other k − 1 (see
   [map]); short-path workers share one stability memo across the team
   (see [sigmas]), so a parallel run does the sequential run's
   stability work, split.

   Observability composes with parallelism: each worker records into
   its own domain-local Obs collectors (Domain.DLS; worker 0 into a
   fresh state swapped in on the caller), exports a snapshot as its
   last act, and the caller merges the snapshots in worker order after
   the join — so `--jobs N --stats` reports true parallel behaviour
   with per-domain attribution. *)

type algorithm = Short_path | Path_based

(* The one reader of EMASK_JOBS: [None] when unset or blank, else the
   positive count it names. A malformed or non-positive value is a hard
   error: silently falling back to sequential would change the
   execution mode behind the user's back. *)
let env_jobs () =
  Budget.read_env "EMASK_JOBS"
    (fun s -> match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)
    "a positive integer"

(* The default job count: EMASK_JOBS, else 1 — parallelism is opt-in so
   every seeded workflow stays on the sequential (identical) path. *)
let default_jobs () = Option.value (env_jobs ()) ~default:1

(* Hardware-default job count for the CLI entry points that opt into
   parallelism (emask spcf/protect, table1/table2): EMASK_JOBS still
   wins when set, otherwise the recommended domain count capped at 8 —
   SPCF fan-out is per critical output, and beyond a handful of domains
   the stragglers dominate before memory bandwidth does. *)
let auto_jobs ?(cap = 8) () =
  match env_jobs () with
  | Some n -> n
  | None -> max 1 (min cap (Domain.recommended_domain_count ()))

(* --- cross-manager BDD transport ---------------------------------------

   The persistence format of ECO snapshots (emask-eco/1), and the
   tests' manager-independent comparison of SPCFs. A BDD is exported as a postorder DAG over plain integers: ids 0/1 are
   the terminals, internal node i (array index) has id i + 2, and
   children always precede parents. Import replays the array bottom-up
   with ite(var v, high, low) = the node (v, low, high), which re-canonizes
   the function inside the destination manager. *)

type dag = int array * int array * int array * int

let export man root : dag =
  if Bdd.is_terminal root then ([||], [||], [||], (root :> int))
  else begin
    let ids : (Bdd.t, int) Hashtbl.t = Hashtbl.create 256 in
    let acc = ref [] and count = ref 0 in
    (* Depth is bounded by the variable order (nvars), so plain
       recursion is safe. *)
    let rec walk n =
      if (not (Bdd.is_terminal n)) && not (Hashtbl.mem ids n) then begin
        Hashtbl.add ids n (-1);
        walk (Bdd.low_of man n);
        walk (Bdd.high_of man n);
        Hashtbl.replace ids n (!count + 2);
        incr count;
        acc := n :: !acc
      end
    in
    walk root;
    let nodes = Array.of_list (List.rev !acc) in
    let id n = if Bdd.is_terminal n then (n :> int) else Hashtbl.find ids n in
    ( Array.map (fun n -> Bdd.var_of man n) nodes,
      Array.map (fun n -> id (Bdd.low_of man n)) nodes,
      Array.map (fun n -> id (Bdd.high_of man n)) nodes,
      id root )
  end

let import man ((vars, lows, highs, root) : dag) =
  if root = 0 then Bdd.bfalse
  else if root = 1 then Bdd.btrue
  else begin
    let n = Array.length vars in
    let handle = Array.make (n + 2) Bdd.bfalse in
    handle.(1) <- Bdd.btrue;
    for i = 0 to n - 1 do
      handle.(i + 2) <-
        Bdd.ite man (Bdd.var man vars.(i)) handle.(highs.(i)) handle.(lows.(i))
    done;
    handle.(root)
  end

(* --- parallel driver ---------------------------------------------------- *)

let sequential ctx ~algorithm ~target =
  match algorithm with
  | Short_path -> Exact.short_path ctx ~target
  | Path_based -> Exact.path_based ctx ~target

(* How one worker's share ended. Every exception is caught inside the
   worker, so no domain's join can raise and each one is joined before
   anything is re-raised: a worker left running would keep writing into
   the context's manager after the caller has moved on. *)
type 'b outcome =
  | Done of 'b list
  | Out_of_budget of Budget.reason
  | Raised of exn * Printexc.raw_backtrace

(* The one round-robin domain map. Worker j owns items j, j+k, j+2k,
   ... — deterministic, and it interleaves neighbouring (often
   similar-sized) cones across workers. Every worker computes directly
   in the context's manager. Worker j's p-th result is item j + p*k, so
   re-interleaving restores item order.

   The calling domain runs share 0 itself and spawns only k − 1
   domains. A caller blocked in [Domain.join] still takes part in every
   stop-the-world minor collection through its backup thread, which on
   a machine with as many cores as workers must first win a timeslice
   from them; measured on 2 vCPUs, 1 M small allocations in each of two
   domains took 28–33 ms with two spawned domains and an idle caller,
   3.1 ms with the caller as one of the two. Share 0 records into its
   own Obs state ([Obs.isolated]) and merges as "worker 1", like any
   spawned worker's snapshot. *)
let map ctx ~jobs items f =
  let n = Array.length items in
  let k = min jobs n in
  if k <= 1 then f items
  else begin
    let collect = Obs.on () in
    let share j () =
      let chunk = Array.init (((n - j - 1) / k) + 1) (fun p -> items.(j + (p * k))) in
      match f chunk with
      | rs -> Done rs
      | exception Budget.Budget_exceeded r ->
        (* All workers tick the one shared budget: cancelling it
           stops the team at their next poll. *)
        Budget.cancel ctx.Ctx.budget;
        Out_of_budget r
      | exception e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    (* Exporting the snapshot is a spawned worker's last act, on every
       path: partial work must still be attributed. *)
    let spawned =
      Array.init (k - 1) (fun j ->
          Domain.spawn (fun () ->
              let res = share (j + 1) () in
              (res, if collect then Some (Obs.export_snapshot ()) else None)))
    in
    let own =
      if collect then
        let res, snap = Obs.isolated (share 0) in
        (res, Some snap)
      else (share 0 (), None)
    in
    let joined = Array.append [| own |] (Array.map Domain.join spawned) in
    (* Merge observability snapshots first, in worker order, so the
       registry is complete and deterministic even when an error
       propagates below. *)
    Array.iteri
      (fun j (_, snap) ->
        Option.iter
          (Obs.merge_snapshot ~label:(Printf.sprintf "worker %d" (j + 1)))
          snap)
      joined;
    (* Every domain has joined. A worker's own exception wins, in worker
       order; then the root cause (the first non-Cancelled reason) if
       any worker ran out of budget. *)
    Array.iter
      (function Raised (e, bt), _ -> Printexc.raise_with_backtrace e bt | _ -> ())
      joined;
    let errors =
      Array.to_list joined
      |> List.filter_map (function Out_of_budget r, _ -> Some r | _ -> None)
    in
    (match (List.find_opt (fun r -> r <> Budget.Cancelled) errors, errors) with
    | Some r, _ | None, r :: _ -> raise (Budget.Budget_exceeded r)
    | None, [] -> ());
    let merged = Array.make n None in
    Array.iteri
      (fun j (res, _) ->
        match res with
        | Done rs -> List.iteri (fun p r -> merged.(j + (p * k)) <- Some r) rs
        | Out_of_budget _ | Raised _ -> assert false)
      joined;
    Array.to_list (Array.map Option.get merged)
  end

(* Per-output Σ of [outputs] on [jobs] workers. Short-path workers
   share one team memo (striped and locked when more than one worker
   runs, lock-free otherwise): the set of (signal, value, budget) keys an
   output's recursion visits does not depend on which worker visits
   it, and a memo value is a canonical handle in the one manager, so a
   team-mate's entry is exactly the value the worker would have
   computed. The team then does the sequential run's stability work
   instead of each worker redoing its team-mates' shared cones. The
   path-based algorithm keeps a fresh memo per output, as its cost
   model prescribes. *)
let sigmas ctx ~jobs ~algorithm outputs ~target_units =
  match algorithm with
  | Short_path ->
    let memo = Exact.Memo.create ~shared:(min jobs (Array.length outputs) > 1) in
    map ctx ~jobs outputs (fun outputs ->
        Exact.sigmas ~memo ctx ~opts:Exact.proposed_options ~outputs ~target_units)
  | Path_based ->
    map ctx ~jobs outputs (fun outputs ->
        Exact.sigmas_lateness ctx ~outputs ~target_units)

let compute ?jobs ctx ~algorithm ~target =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if jobs = 1 then sequential ctx ~algorithm ~target
  else begin
    let name =
      match algorithm with
      | Short_path -> "short-path-based"
      | Path_based -> "path-based"
    in
    let outputs, runtime =
      Obs.timed ("spcf." ^ name) (fun () ->
          sigmas ctx ~jobs ~algorithm
            (Sta.critical_outputs ctx.Ctx.sta ~target)
            ~target_units:(Ctx.units_of_target target))
    in
    Ctx.make_result ctx ~algorithm:name ~target outputs ~runtime
  end

let short_path ?jobs ctx ~target = compute ?jobs ctx ~algorithm:Short_path ~target
let path_based ?jobs ctx ~target = compute ?jobs ctx ~algorithm:Path_based ~target
