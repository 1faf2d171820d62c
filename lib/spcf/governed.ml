(* Budget-governed SPCF: exact -> node-based -> always-on.

   Each tier gets a *fresh* context (see [ladder]). Soundness per tier
   is argued in DESIGN.md §11: every tier's Σ is a superset of the
   exact Σ, and any superset yields a masking circuit whose prediction
   is still correct. *)

type algorithm = Short_path | Path_based | Node_based

type tier = Exact | Node_fallback | Always_on

let tier_to_string = function
  | Exact -> "exact"
  | Node_fallback -> "node-based"
  | Always_on -> "always-on"

let c_fallback_node = Obs.counter "spcf.fallback.node_based"
let c_fallback_always = Obs.counter "spcf.fallback.always_on"
let h_outputs_exact = Obs.histogram "spcf.tier.exact.outputs"
let h_outputs_node = Obs.histogram "spcf.tier.node_based.outputs"
let h_outputs_always = Obs.histogram "spcf.tier.always_on.outputs"

let record_fallback = function
  | Exact -> ()
  | Node_fallback ->
    Obs.incr c_fallback_node;
    Obs.instant "spcf.fallback.node_based"
  | Always_on ->
    Obs.incr c_fallback_always;
    Obs.instant "spcf.fallback.always_on"

(* A governed run that never falls back must still show "fallbacks = 0"
   rather than nothing: register the ladder metrics the moment a real
   budget enters the picture. *)
let touch_ladder_metrics () =
  Obs.touch_counter c_fallback_node;
  Obs.touch_counter c_fallback_always;
  Obs.touch_histogram h_outputs_exact;
  Obs.touch_histogram h_outputs_node;
  Obs.touch_histogram h_outputs_always

let record_tier tier result =
  Obs.observe
    (match tier with
    | Exact -> h_outputs_exact
    | Node_fallback -> h_outputs_node
    | Always_on -> h_outputs_always)
    (Ctx.num_critical_outputs result)

let always_on ctx ~target =
  let outputs, runtime =
    Obs.timed "spcf.always-on" (fun () ->
        Array.to_list (Sta.critical_outputs ctx.Ctx.sta ~target)
        |> List.map (fun (name, y) -> (name, y, Bdd.btrue)))
  in
  Ctx.make_result ctx ~algorithm:"always-on" ~target outputs ~runtime

type outcome = {
  ctx : Ctx.t;
  result : Ctx.result;
  tier : tier;
  attempts : (tier * Budget.reason) list;
}

(* The worker-domain count of a run: a positive request as given, else
   EMASK_JOBS ([Parallel.default_jobs]). *)
let jobs_of jobs = if jobs >= 1 then jobs else Parallel.default_jobs ()

(* One tier's context and Σ: the requested algorithm at tier 1,
   node-based at tier 2, Σ := 1 at tier 3. A multi-job run of an exact
   tier grows one DAG from every worker; node-based is single-pass
   sequential and the floor does no SPCF work. *)
let run_tier ?(jobs = 0) ~model ~budget ~theta tier algorithm circuit =
  let jobs = jobs_of jobs in
  let algorithm = if tier = Exact then algorithm else Node_based in
  let ctx = Ctx.create ~model ~budget circuit in
  let target = Ctx.target_of_theta ctx theta in
  let result =
    match (tier, algorithm) with
    | Always_on, _ -> always_on ctx ~target
    | _, Short_path -> Parallel.compute ~jobs ctx ~algorithm:Parallel.Short_path ~target
    | _, Path_based -> Parallel.compute ~jobs ctx ~algorithm:Parallel.Path_based ~target
    | _, Node_based -> Node_based.compute ctx ~target
  in
  (ctx, result)

(* The degradation ladder, walked once for every SPCF-driven job.
   [body] runs one tier under [budget] and must build everything it
   needs afresh: falling back inside the exhausted manager would
   re-raise immediately (its node count already exceeds the quota), so
   tier 2 reruns under a renewed budget — same deadline and quotas,
   fresh operation count — and the tier-3 floor reruns ungoverned,
   because a floor that can itself fail is not a floor. *)
let ladder ~spec ~algorithm body =
  if Budget.is_no_limits spec then
    (* Ungoverned: exactly the plain computation, bit for bit. *)
    body ~budget:Budget.unlimited ~tier:Exact ~attempts:[]
  else begin
    (* Cancellation is not exhaustion: nobody wants the result, so
       degrading to a cheaper tier would waste exactly the work the
       cancel was meant to stop. [Cancelled] is never caught here. *)
    let attempt ~budget ~tier ~attempts next =
      match body ~budget ~tier ~attempts with
      | r -> r
      | exception Budget.Budget_exceeded r when r <> Budget.Cancelled ->
        next (attempts @ [ (tier, r) ])
    in
    let floor attempts =
      record_fallback Always_on;
      body ~budget:Budget.unlimited ~tier:Always_on ~attempts
    in
    let budget = Budget.instantiate spec in
    attempt ~budget ~tier:Exact ~attempts:[] (fun attempts ->
        if algorithm = Node_based then
          (* The request already was the tier-2 algorithm. *)
          floor attempts
        else begin
          record_fallback Node_fallback;
          attempt ~budget:(Budget.renew budget) ~tier:Node_fallback ~attempts floor
        end)
  end

let compute ?jobs ?(model = Sta.Library) ?(spec = Budget.no_limits) ~algorithm ~theta
    circuit =
  if not (Budget.is_no_limits spec) then touch_ladder_metrics ();
  ladder ~spec ~algorithm (fun ~budget ~tier ~attempts ->
      let ctx, result = run_tier ?jobs ~model ~budget ~theta tier algorithm circuit in
      (* The construction survived its budget; lift it so downstream
         consumers of the context (satcounts, verification) are not
         tripped by a quota the result already fits inside. *)
      Bdd.set_budget ctx.Ctx.man Budget.unlimited;
      record_tier tier result;
      { ctx; result; tier; attempts })
