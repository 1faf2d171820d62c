(* Synthesis of the error-masking circuit (paper Sec. 4).

   Given a technology-independent network T and the SPCF Σ_y of each
   critical output of its mapped realization C, every internal node n_j
   in a critical fanin cone is simplified against the satisfiability
   care-set Σ_y induces at its inputs: the cubes of its on-set and
   off-set SOPs are ranked by literal count and kept exactly when their
   *essential weight* — the share of Σ patterns they newly cover — is
   non-zero. The reduced covers n¹/n⁰ define the prediction ñ_j = n¹ and
   the indicator e_{n_j} = n⁰ ⊕ n¹ (Eqn. 2); the output indicator e_y is
   the AND of the node indicators over the cone (the paper's structural
   indicator), or — when a shallower circuit is required — an SOP for
   any function between Σ_y and the correct-prediction region, extracted
   directly from the BDDs (the direct indicator). The resulting network
   T̃ is optimized (Netopt) and mapped; a MUX21 in front of each critical
   output selects ỹ whenever e is raised. *)

type indicator = Structural | Direct

type algorithm = Spcf.Governed.algorithm = Short_path | Path_based | Node_based

type cube_order = Ascending | Descending | Unsorted

type options = {
  theta : float;
  algorithm : algorithm;
  indicator : indicator;
  cube_order : cube_order;
  simplify_e : bool;
  optimize : bool;
  collapse : bool;
  map_style : Mapper.style;
  log_errors : bool;
  delay_model : Sta.delay_model;
  prune_false_paths : bool;
      (* drop provably-false critical outputs from the cover (exact tier) *)
  jobs : int; (* SPCF worker domains; 0 = inherit EMASK_JOBS, 1 = sequential *)
  budget : Budget.spec; (* resource governance; no_limits = ungoverned *)
}

let default_options =
  {
    theta = 0.9;
    algorithm = Short_path;
    indicator = Direct;
    cube_order = Ascending;
    simplify_e = true;
    optimize = true;
    collapse = true;
    map_style = Mapper.Balanced;
    log_errors = false;
    delay_model = Sta.Library;
    prune_false_paths = false;
    jobs = 0;
    budget = Budget.no_limits;
  }

type per_output = {
  name : string;
  tier : Spcf.Governed.tier; (* which ladder tier produced this output *)
  sigma : Bdd.t; (* over the SPCF context's manager *)
  y_combined : Network.signal;
  ytilde_combined : Network.signal;
  e_combined : Network.signal;
  masked_combined : Network.signal;
  err_combined : Network.signal option;
}

type t = {
  source : Network.t;
  original : Mapped.t;
  ctx : Spcf.Ctx.t;
  spcf : Spcf.Ctx.result;
  masking_net : Network.t;
  masking : Mapped.t;
  combined : Mapped.t;
  per_output : per_output list;
  options : options;
  target : float;
  delta : float;
  tier : Spcf.Governed.tier; (* ladder tier the whole synthesis landed on *)
  attempts : (Spcf.Governed.tier * Budget.reason) list;
      (* budget walls hit by the tiers that did not complete *)
  pruned : string list;
      (* critical outputs dropped from the cover as provably false *)
}

let c_cubes_kept = Obs.counter "synthesis.cubes.kept"
let c_cubes_dropped = Obs.counter "synthesis.cubes.dropped"

(* Greedy essential-weight cube selection (Sec. 4.1): keep a cube iff it
   covers some Σ pattern not covered by the cubes kept before it. *)
let select_cubes ~man ~order ~sigma ~fanin_bdds cover =
  let cubes =
    let c = Logic2.Cover.cubes cover in
    match order with
    | Ascending -> List.sort Logic2.Cube.compare_by_literals c
    | Descending -> List.sort (fun a b -> Logic2.Cube.compare_by_literals b a) c
    | Unsorted -> c
  in
  let covered = ref Bdd.bfalse in
  let keep =
    List.filter
      (fun c ->
        let cb = Bdd.cube_with man c fanin_bdds in
        let on_sigma = Bdd.band man sigma cb in
        let fresh = Bdd.band man on_sigma (Bdd.bnot man !covered) in
        if fresh = Bdd.bfalse then begin
          Obs.incr c_cubes_dropped;
          false
        end
        else begin
          Obs.incr c_cubes_kept;
          covered := Bdd.bor man !covered on_sigma;
          true
        end)
      cubes
  in
  Logic2.Cover.of_cubes (Logic2.Cover.num_vars cover) keep

(* BDDs of every signal of [net] inside an existing manager whose
   variable i is the i-th primary input (input orders must agree). *)
let bdds_in_man man net =
  let f = Array.make (Network.num_signals net) Bdd.bfalse in
  Array.iteri (fun i s -> f.(s) <- Bdd.var man i) (Network.inputs net);
  Array.iter
    (fun s ->
      match Network.node_of net s with
      | None -> ()
      | Some nd ->
        f.(s) <- Bdd.cover_with man nd.Network.func (Array.map (fun x -> f.(x)) nd.Network.fanins))
    (Network.topo_order net);
  f

let tautology_cover_1 =
  Logic2.Cover.of_cubes 1
    [ Logic2.Cube.make 1 [ (0, true) ]; Logic2.Cube.make 1 [ (0, false) ] ]

(* Add an ISOP cover over the primary inputs [pis] of [tnet] as a node
   named [nm], compacted to its support; a constant cover hangs off
   PI 0. *)
let add_pi_cover_node tnet ~pis nm cover_full =
  match Logic2.Bits.to_list (Logic2.Cover.support cover_full) with
  | [] ->
    let func =
      if Logic2.Cover.is_tautology cover_full then tautology_cover_1
      else Logic2.Cover.zero 1
    in
    Network.add_node tnet nm ~fanins:[| pis.(0) |] ~func
  | vars ->
    let index = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace index v i) vars;
    let arity = List.length vars in
    let remap_cube c =
      Logic2.Cube.make arity
        (List.map (fun (v, ph) -> (Hashtbl.find index v, ph)) (Logic2.Cube.literals c))
    in
    let cover =
      Logic2.Cover.of_cubes arity (List.map remap_cube (Logic2.Cover.cubes cover_full))
    in
    Network.add_node tnet nm ~fanins:(Array.of_list (List.map (fun v -> pis.(v)) vars))
      ~func:cover

let synthesize_body options net ~budget ~tier ~attempts =
  let original, smap =
    Obs.with_span "map" (fun () ->
        Mapper.map_with_signals ~style:options.map_style net)
  in
  let ctx, spcf =
    Spcf.Governed.run_tier ~jobs:options.jobs ~model:options.delay_model ~budget
      ~theta:options.theta tier options.algorithm original
  in
  let delta = Spcf.Ctx.delta ctx in
  let target = spcf.Spcf.Ctx.target in
  let man = ctx.Spcf.Ctx.man in
  let funcs_net s = ctx.Spcf.Ctx.funcs.(smap.(s)) in
  (* Critical outputs in terms of the source network (matched by name). *)
  let net_outputs = Network.outputs net in
  let critical =
    List.filter_map
      (fun (name, _, sigma) ->
        match Array.find_opt (fun (n, _) -> n = name) net_outputs with
        | Some (_, s) -> Some (name, s, sigma)
        | None -> None)
      spcf.Spcf.Ctx.outputs
  in
  (* Opt-in false-path pruning: drop a critical output from the cover
     only on double evidence — every near-critical path to it proves
     statically false AND its SPCF Σ_y is empty. Static sensitization
     alone is optimistic for floating-mode delay; the empty SPCF is
     the functional certificate that no pattern needs masking there.
     Only the exact tier carries that certificate, so the fallback
     tiers never prune. *)
  let pruned, critical =
    if
      options.prune_false_paths
      && (match tier with Spcf.Governed.Exact -> true | _ -> false)
      && options.algorithm <> Node_based
    then begin
      (* The band mirrors the SPCF target: near-critical means longer
         than theta * delta, i.e. band = 1 - theta. *)
      let report =
        Sensitization.analyze_ctx ~band:(1. -. options.theta)
          ~jobs:(Spcf.Governed.jobs_of options.jobs) ctx
      in
      let false_outs = Sensitization.false_outputs report in
      let p, keep =
        List.partition
          (fun (name, _, sigma) ->
            sigma = Bdd.bfalse && List.mem name false_outs)
          critical
      in
      (List.map (fun (name, _, _) -> name) p, keep)
    end
    else ([], critical)
  in
  (* Per-node Σ: union of the SPCFs of the critical outputs whose fanin
     cone contains the node ("all outputs simultaneously"). *)
  let nsig = Network.num_signals net in
  let sigma_node = Array.make nsig Bdd.bfalse in
  let in_any_cone = Array.make nsig false in
  Obs.enter "care-sets";
  let cones =
    List.map
      (fun (name, s, sigma) ->
        let cone = Network.cone net [ s ] in
        Array.iteri
          (fun j inside ->
            if inside && not (Network.is_input net j) then begin
              in_any_cone.(j) <- true;
              sigma_node.(j) <- Bdd.bor man sigma_node.(j) sigma
            end)
          cone;
        (name, s, sigma, cone))
      critical
  in
  Obs.leave ();
  (* Build T̃. *)
  Obs.enter "simplify";
  let tnet = Network.create () in
  let ntilde = Array.make nsig (-1) in
  Array.iter
    (fun s -> ntilde.(s) <- Network.add_input tnet (Network.name_of net s))
    (Network.inputs net);
  let first_tpi = (Network.inputs tnet).(0) in
  let e_of_node = Array.make nsig (-1) in
  (* -1: no indicator node needed (tautology). *)
  Array.iter
    (fun s ->
      match Network.node_of net s with
      | Some nd when in_any_cone.(s) ->
        let sigma = sigma_node.(s) in
        let fanin_bdds = Array.map funcs_net nd.Network.fanins in
        let fanins_t = Array.map (fun f -> ntilde.(f)) nd.Network.fanins in
        let on = nd.Network.func in
        let off = Logic2.Cover.complement on in
        let n1 = select_cubes ~man ~order:options.cube_order ~sigma ~fanin_bdds on in
        let n0 = select_cubes ~man ~order:options.cube_order ~sigma ~fanin_bdds off in
        ntilde.(s) <-
          Network.add_node tnet ("t_" ^ Network.name_of net s) ~fanins:fanins_t ~func:n1;
        if options.indicator = Structural then begin
          (* e = n⁰ ⊕ n¹; the covers are disjoint, so the XOR is an OR. *)
          let e_cover =
            Logic2.Cover.single_cube_containment (Logic2.Cover.union n0 n1)
          in
          let e_cover =
            if options.simplify_e then
              select_cubes ~man ~order:Ascending ~sigma ~fanin_bdds e_cover
            else e_cover
          in
          if not (Logic2.Cover.is_tautology e_cover) then
            e_of_node.(s) <-
              Network.add_node tnet
                ("e_" ^ Network.name_of net s)
                ~fanins:fanins_t ~func:e_cover
        end
      | Some _ | None -> ())
    (Network.topo_order net);
  Obs.leave ();
  (* Prediction BDDs, for the direct indicator's correctness region. *)
  let tnet_funcs = lazy (bdds_in_man man tnet) in
  let t_inputs = Network.inputs tnet in
  Obs.enter "indicators";
  let outputs_meta =
    List.map
      (fun (name, s, sigma, cone) ->
        let ytilde = ntilde.(s) in
        Network.mark_output tnet ~name:("yt__" ^ name) ytilde;
        let e_sig =
          match options.indicator with
          | Structural ->
            let parts = ref [] in
            Array.iteri
              (fun j inside -> if inside && e_of_node.(j) >= 0 then parts := e_of_node.(j) :: !parts)
              cone;
            (match !parts with
            | [] ->
              (* Every node indicator is a tautology: e ≡ 1. *)
              Network.add_node tnet ("e1__" ^ name) ~fanins:[| first_tpi |]
                ~func:tautology_cover_1
            | parts ->
              let arity = List.length parts in
              let cube = Logic2.Cube.make arity (List.init arity (fun i -> (i, true))) in
              Network.add_node tnet ("eand__" ^ name)
                ~fanins:(Array.of_list parts)
                ~func:(Logic2.Cover.of_cubes arity [ cube ]))
          | Direct ->
            (* Any function with Σ_y ⊆ e ⊆ (ỹ = y) is a sound indicator;
               the interval ISOP exploits the gap to stay small. *)
            let ytilde_bdd = (Lazy.force tnet_funcs).(ytilde) in
            let upper = Bdd.bxnor man ytilde_bdd (funcs_net s) in
            add_pi_cover_node tnet ~pis:t_inputs ("e__" ^ name)
              (Isop.compute man ~lower:sigma ~upper)
        in
        Network.mark_output tnet ~name:("e__out__" ^ name) e_sig;
        (name, s, sigma))
      cones
  in
  Obs.leave ();
  (* A flat two-level variant: per critical output, synthesize the
     prediction directly as an interval ISOP (any G with Σ∧y ⊆ G ⊆ y∨¬Σ
     predicts y on Σ) and the indicator likewise. Mapped as balanced
     AND/OR trees this is very shallow; it wins on narrow dense cones
     where the structural network cannot simplify. Skipped when a cover
     explodes. *)
  let flat_variant () =
    Obs.with_span "flat-variant" @@ fun () ->
    try
      let tf = Network.create () in
      Array.iter
        (fun s -> ignore (Network.add_input tf (Network.name_of net s)))
        (Network.inputs net);
      let tf_inputs = Network.inputs tf in
      let add_cover_node nm cover_full =
        if Logic2.Cover.num_cubes cover_full > 300 then raise Exit;
        add_pi_cover_node tf ~pis:tf_inputs nm cover_full
      in
      List.iter
        (fun (name, s, sigma) ->
          let fy = funcs_net s in
          let lower = Bdd.band man sigma fy in
          let upper = Bdd.bor man fy (Bdd.bnot man sigma) in
          let g_cover = Isop.compute man ~lower ~upper in
          let yt = add_cover_node ("yt__" ^ name) g_cover in
          Network.mark_output tf ~name:("yt__" ^ name) yt;
          let g_bdd = Bdd.of_cover man g_cover in
          let e_cover =
            Isop.compute man ~lower:sigma ~upper:(Bdd.bxnor man g_bdd fy)
          in
          let e = add_cover_node ("e__" ^ name) e_cover in
          Network.mark_output tf ~name:("e__out__" ^ name) e)
        (List.map (fun (n, s, sg) -> (n, s, sg)) outputs_meta);
      Some tf
    with Exit -> None
  in
  (* Optimize and map T̃. Elimination is kept gentle: aggressive inlining
     after chain collapsing would merge the balanced structures back
     into dense (and deeply mapped) SOP nodes. All variants are mapped;
     preference goes to variants meeting the 20% slack requirement with
     the smallest area, falling back to the shallowest. *)
  let gentle = { Netopt.max_sub_cubes = 2; max_result_cubes = 5; passes = 3 } in
  Obs.enter "optimize+map";
  let candidates =
    if options.optimize then begin
      let base = [ Netopt.optimize ~limits:gentle ~collapse:false tnet ] in
      let base =
        if options.collapse then
          Netopt.optimize ~limits:gentle ~collapse:true tnet :: base
        else base
      in
      match (if outputs_meta = [] then None else flat_variant ()) with
      | Some tf -> base @ [ tf ]
      | None -> base
    end
    else [ tnet ]
  in
  let slack_goal = 0.8 *. delta in
  let score mc =
    let d = Sta.delta (Sta.analyze ~model:options.delay_model mc) in
    let meets = d <= slack_goal in
    (* Lexicographic: meeting the slack target first, then area for
       those that meet it, then raw delay. *)
    ((if meets then 0. else 1.), (if meets then Mapped.area mc else 0.), d, Mapped.area mc)
  in
  let masking_net, masking =
    match
      List.map (fun n -> (n, Mapper.map ~style:options.map_style n)) candidates
    with
    | [] -> assert false
    | first :: rest ->
      List.fold_left
        (fun (bn, bm) (n, mc) -> if score mc < score bm then (n, mc) else (bn, bm))
        first rest
  in
  Obs.leave ();
  (* Combined circuit: C, C̃ and the output muxes. *)
  Obs.enter "combine";
  let combined = Mapped.create () in
  Array.iter
    (fun s -> ignore (Mapped.add_input combined (Network.name_of net s)))
    (Network.inputs net);
  let omap = Mapped.append combined ~prefix:"" original in
  let mmap =
    if outputs_meta = [] then [||]
    else Mapped.append combined ~prefix:"mk_" masking
  in
  let orig_outputs = Network.outputs (Mapped.network original) in
  let mask_outputs = Network.outputs (Mapped.network masking) in
  let mask_out name =
    match Array.find_opt (fun (n, _) -> n = name) mask_outputs with
    | Some (_, s) -> mmap.(s)
    | None -> invalid_arg ("Synthesis: missing masking output " ^ name)
  in
  let per_output = ref [] in
  Array.iter
    (fun (name, msig) ->
      let y_cmb = omap.(msig) in
      match List.find_opt (fun (n, _, _) -> n = name) outputs_meta with
      | Some (_, _, sigma) ->
        let yt = mask_out ("yt__" ^ name) in
        let e = mask_out ("e__out__" ^ name) in
        let mux = Mapped.add_gate combined Cell.mux21 [| y_cmb; yt; e |] in
        Mapped.mark_output combined ~name mux;
        let err =
          if options.log_errors then begin
            let x = Mapped.add_gate combined Cell.eo [| y_cmb; yt |] in
            let err = Mapped.add_gate combined Cell.an2 [| e; x |] in
            Mapped.mark_output combined ~name:(name ^ "__err") err;
            Some err
          end
          else None
        in
        per_output :=
          {
            name;
            tier;
            sigma;
            y_combined = y_cmb;
            ytilde_combined = yt;
            e_combined = e;
            masked_combined = mux;
            err_combined = err;
          }
          :: !per_output
      | None -> Mapped.mark_output combined ~name y_cmb)
    orig_outputs;
  Obs.leave ();
  (* The whole construction survived its budget; lift it so downstream
     consumers of the context (verification, satcounts) are not tripped
     by a quota the result already fits inside. *)
  Bdd.set_budget man Budget.unlimited;
  {
    source = net;
    original;
    ctx;
    spcf;
    masking_net;
    masking;
    combined;
    per_output = List.rev !per_output;
    options;
    target;
    delta;
    tier;
    attempts;
    pruned;
  }

(* The degradation ladder (DESIGN.md §11). Each tier reruns the whole
   body in a fresh context: the later synthesis stages (cube selection,
   indicator ISOPs) must be governed too — SPCF is not the only place a
   budget can run out. On the ungoverned tier-3 floor Σ = 1, so cube
   selection preserves every node function exactly and the indicator
   collapses to e ≡ 1: the floor is cheap, always sound, and always
   completes. *)
let synthesize ?(options = default_options) net =
  Obs.with_span "synthesis" @@ fun () ->
  Spcf.Governed.ladder ~spec:options.budget ~algorithm:options.algorithm
    (synthesize_body options net)
