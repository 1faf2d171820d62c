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

   The calling domain is worker 0 and hands the other k − 1 shares to
   helper domains it keeps from call to call (see [map]); short-path
   workers share one stability memo across the team (see [sigmas]), so
   a parallel run does the sequential run's stability work, split.

   Observability composes with parallelism: each worker records into a
   fresh domain-local Obs state (Domain.DLS, swapped in by
   [Obs.isolated]), exports a snapshot as its last act, and the caller
   merges the snapshots in worker order once every share has finished
   — so `--jobs N --stats` reports true parallel behaviour with
   per-domain attribution. *)

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

(* --- helper domains --------------------------------------------------

   Each calling domain owns the helper domains that run the shares of
   its [map] calls beyond its own. A helper is spawned the first time
   its owner needs more helpers than it has, up to [max_helpers] of
   them, waits on its own condition between calls, and is stopped and
   joined when the owner exits ([Domain.at_exit]), so a serve worker
   that shuts down leaves no parked domain behind. A helper keeps its
   domain-local state from one call to the next: its computed cache at
   the size it grew to, its compiled cell programs, its heaps. One team
   per calling domain, not one per process: two serve workers that both
   run jobs > 1 requests never queue for each other's helpers.

   The handoff mutex orders caller and helper in both directions. What
   the caller wrote before handing a share over (nodes, chunks, the
   items) is visible to the helper once it sees its task; what the
   helper wrote (its nodes, its result) is visible to the caller once
   it sees the helper idle again. *)

type task = Idle | Run of (unit -> unit) | Stop

(* Only the owner and the helper wait on [wake], and never at once:
   the helper waits while [Idle], the owner while [Run]. *)
type helper = { lock : Mutex.t; wake : Condition.t; mutable task : task }

type team = { mutable helpers : (helper * unit Domain.t) array; mutable busy : bool }

let rec run_helper h =
  Mutex.lock h.lock;
  while (match h.task with Idle -> true | Run _ | Stop -> false) do
    Condition.wait h.wake h.lock
  done;
  match h.task with
  | Run f ->
    Mutex.unlock h.lock;
    f ();
    Mutex.lock h.lock;
    (* A [Stop] that arrived while [f] ran (the owner exiting from
       inside its own share) must survive. *)
    (match h.task with Run _ -> h.task <- Idle | Idle | Stop -> ());
    Condition.signal h.wake;
    Mutex.unlock h.lock;
    run_helper h
  | Idle | Stop -> Mutex.unlock h.lock

let set_task h t =
  Mutex.lock h.lock;
  h.task <- t;
  Condition.signal h.wake;
  Mutex.unlock h.lock

let await h =
  Mutex.lock h.lock;
  while (match h.task with Run _ -> true | Idle | Stop -> false) do
    Condition.wait h.wake h.lock
  done;
  Mutex.unlock h.lock

(* A domain's team, created on its first [map]; the domain's exit
   stops and joins the team's helpers. *)
let team_key =
  Domain.DLS.new_key (fun () ->
      let team = { helpers = [||]; busy = false } in
      Domain.at_exit (fun () ->
          Array.iter (fun (h, _) -> set_task h Stop) team.helpers;
          Array.iter (fun (_, d) -> Domain.join d) team.helpers;
          team.helpers <- [||]);
      team)

(* Beyond one domain per core more helpers only time-slice, and every
   parked helper takes part in each stop-the-world minor collection of
   the process, so a team keeps at most this many. At least one, so a
   map with k > 1 always runs two domains at once. *)
let max_helpers = max 1 (Domain.recommended_domain_count () - 1)

(* Up to [n] of the team's helpers, spawning the missing ones. A spawn
   that fails (the runtime's cap on domains) leaves the team with the
   helpers it already has, and the shares run on those. *)
let helpers team n =
  (try
     while Array.length team.helpers < n do
       let h = { lock = Mutex.create (); wake = Condition.create (); task = Idle } in
       let d = Domain.spawn (fun () -> run_helper h) in
       team.helpers <- Array.append team.helpers [| (h, d) |]
     done
   with Failure _ -> ());
  Array.sub team.helpers 0 (min n (Array.length team.helpers))

(* How one worker's share ended. Every exception is caught inside the
   share, so each helper reports back and is awaited before anything
   is re-raised: a worker left running would keep writing into the
   context's manager after the caller has moved on. *)
type 'b outcome =
  | Done of 'b list
  | Out_of_budget of Budget.reason
  | Raised of exn * Printexc.raw_backtrace

(* The one round-robin domain map, for k > 1 workers. Worker j owns
   items j, j+k, j+2k, ... — deterministic, and it interleaves
   neighbouring (often similar-sized) cones across workers. Every
   worker computes directly in the context's manager. Worker j's p-th
   result is item j + p*k, so re-interleaving restores item order.

   The calling domain and its m − 1 helpers (min (k − 1) [max_helpers],
   fewer if a spawn failed) run the k shares: domain d runs shares d,
   d+m, d+2m, ... in turn, so the caller runs share 0. A domain blocked
   on a condition or in [Domain.join] still takes part in every
   stop-the-world minor collection through its backup thread, which on
   a machine with as many cores as workers must first win a timeslice
   from them; measured on 2 vCPUs, 1 M small allocations in each of two
   domains took 28–33 ms with two spawned domains and an idle caller,
   3.1 ms with the caller as one of the two. Every share records into
   its own Obs state ([Obs.isolated]), so nothing a helper recorded
   carries over to its next call, and merges as "worker j+1". *)
let run_shares ctx team ~k items f =
  let n = Array.length items in
  let helpers = helpers team (min (k - 1) max_helpers) in
  let m = Array.length helpers + 1 in
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
  (* The snapshot is exported on every path: partial work must still
     be attributed. [run] never raises, so a helper always reports
     back. *)
  let run j =
    try
      if collect then
        let res, snap = Obs.isolated (share j) in
        (res, Some snap)
      else (share j (), None)
    with e -> (Raised (e, Printexc.get_raw_backtrace ()), None)
  in
  let joined = Array.make k (Done [], None) in
  let run_from d () =
    let j = ref d in
    while !j < k do
      joined.(!j) <- run !j;
      j := !j + m
    done
  in
  team.busy <- true;
  Array.iteri (fun i (h, _) -> set_task h (Run (run_from (i + 1)))) helpers;
  run_from 0 ();
  Array.iter (fun (h, _) -> await h) helpers;
  team.busy <- false;
  (* Merge observability snapshots first, in worker order, so the
     registry is complete and deterministic even when an error
     propagates below. *)
  Array.iteri
    (fun j (_, snap) ->
      Option.iter
        (Obs.merge_snapshot ~label:(Printf.sprintf "worker %d" (j + 1)))
        snap)
    joined;
  (* Every share has finished. A worker's own exception wins, in worker
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

(* A call made from inside a share of the same domain finds the team
   busy and runs [f] on the whole array itself, which gives the same
   answer. *)
let map ctx ~jobs items f =
  let k = min jobs (Array.length items) in
  if k <= 1 then f items
  else
    let team = Domain.DLS.get team_key in
    if team.busy then f items else run_shares ctx team ~k items f

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
