(* Static path-sensitization analysis over the near-critical band.

   The STA in [lib/timing] is purely topological: a path counts as
   critical whenever its gate delays add up, whether or not any input
   pattern can propagate a transition along it. This pass classifies
   every near-critical structural path ({!Paths}) functionally:

   - the *static sensitization condition* of a path is the AND, over
     its gates, of the Boolean difference of the gate function with
     respect to the on-path signal — i.e. "the gate output depends on
     the on-path pin", which requires every side input to sit at a
     non-controlling value. Side inputs are the global functions of
     the fanin signals (BDDs over the primary inputs), so the
     condition is a function of primary inputs only;
   - a path whose condition is the zero function is statically FALSE:
     no input pattern sensitizes it, and it cannot set the circuit's
     functional delay;
   - a path whose condition is satisfiable is reported TRUE together
     with a concrete witness pattern found by the independent
     {!Dpll} engine (never by the BDD that made the claim — the two
     procedures cross-check each other);
   - a path whose classification exhausts the [lib/budget] governor
     (BDD nodes, SAT decisions, wall clock) is UNKNOWN, which every
     consumer must treat as "possibly sensitizable". Unknown is the
     sound direction: it can only make the functional delay bound
     *larger*, never smaller.

   Caveat, stated here because the synthesis consumer depends on it:
   static sensitization is itself optimistic for *floating-mode*
   delay (a statically-false path can still carry a transition under
   multi-input switching). The masking pruner therefore never relies
   on verdicts alone — it drops an output's paths only when the SPCF
   Σ_y is additionally empty (see [Masking.Synthesis]); the verdict
   layer here is documentation plus the functional-Δ bound, which is
   valid for single-input-change delay. *)

type verdict =
  | True of bool array  (** SAT witness, indexed by primary-input position *)
  | False
  | Unknown of Budget.reason

type classified = { path : Paths.path; verdict : verdict }

type summary = {
  output : string;
  signal : Network.signal;
  num_paths : int;  (** near-critical paths terminating here *)
  num_true : int;
  num_false : int;
  num_unknown : int;
  topological : float;  (** STA arrival time of the output *)
  functional : float;
      (** sound upper bound on the single-input-change functional
          delay: max length over non-[False] near-critical paths, the
          band target when all proved [False], the topological arrival
          when enumeration truncated *)
}

type report = {
  band : float;
  target : float;  (** (1 - band) * Delta *)
  delta : float;
  model : Sta.delay_model;
  truncated : bool;
  jobs : int;
  paths : classified list;  (** in {!Paths.enumerate} order *)
  summaries : summary list;  (** every primary output, declaration order *)
  functional_delta : float;  (** max over the per-output bounds *)
}

let verdict_name = function
  | True _ -> "true"
  | False -> "false"
  | Unknown _ -> "unknown"

let c_paths = Obs.counter "sens.paths"
let c_true = Obs.counter "sens.true"
let c_false = Obs.counter "sens.false"
let c_unknown = Obs.counter "sens.unknown"

(* --- SAT witness extraction -------------------------------------------- *)

(* Encode the path's static-sensitization condition into CNF over the
   fanin cone of its output and solve with the DPLL engine. Primary
   inputs take solver variables 0 .. npis-1 by input position, so a
   model projects directly onto a witness vector. Returns [None] on
   UNSAT — which the caller treats as an engine disagreement, since it
   only asks after the BDD found the condition satisfiable. *)
let witness_of_path ~budget net ~npis path =
  let sigs = path.Paths.signals in
  let po = sigs.(Array.length sigs - 1) in
  let cone = Network.cone net [ po ] in
  (* A safe variable upper bound: [encode_sop] allocates at most one
     variable per cube plus one for the OR — once for each cone gate,
     twice more (both substitutions) for each on-path gate. *)
  let est = ref (npis + 8) in
  Array.iter
    (fun s ->
      if cone.(s) then
        match Network.node_of net s with
        | Some nd -> est := !est + Logic2.Cover.num_cubes nd.Network.func + 1
        | None -> ())
    (Network.topo_order net);
  Array.iter
    (fun s ->
      match Network.node_of net s with
      | Some nd -> est := !est + (2 * (Logic2.Cover.num_cubes nd.Network.func + 1))
      | None -> ())
    sigs;
  let solver = Dpll.create !est in
  let next_var = ref npis in
  let repr = Array.make (Network.num_signals net) (Tseitin.Const false) in
  let positions = Network.input_positions net in
  Array.iter
    (fun s -> repr.(s) <- Tseitin.Lit (Dpll.pos positions.(s)))
    (Network.inputs net);
  Array.iter
    (fun s ->
      if cone.(s) then
        match Network.node_of net s with
        | None -> ()
        | Some nd ->
          let binds = Array.map (fun f -> repr.(f)) nd.Network.fanins in
          repr.(s) <- Tseitin.encode_sop solver next_var nd.Network.func binds)
    (Network.topo_order net);
  for i = 1 to Array.length sigs - 1 do
    let g = sigs.(i) and x = sigs.(i - 1) in
    match Network.node_of net g with
    | None -> ()
    | Some nd ->
      let sub c =
        Array.map
          (fun f -> if f = x then Tseitin.Const c else repr.(f))
          nd.Network.fanins
      in
      let l1 = Tseitin.encode_sop solver next_var nd.Network.func (sub true) in
      let l0 = Tseitin.encode_sop solver next_var nd.Network.func (sub false) in
      (* Require f[x:=1] XOR f[x:=0] — the gate output must depend on
         the on-path pin. *)
      (match (l1, l0) with
      | Tseitin.Const a, Tseitin.Const b ->
        if a = b then Dpll.add_clause solver [] (* statically impossible *)
      | Tseitin.Const a, Tseitin.Lit l | Tseitin.Lit l, Tseitin.Const a ->
        Dpll.add_clause solver [ (if a then Dpll.negate l else l) ]
      | Tseitin.Lit a, Tseitin.Lit b ->
        Dpll.add_clause solver [ a; b ];
        Dpll.add_clause solver [ Dpll.negate a; Dpll.negate b ])
  done;
  match Dpll.solve ~budget solver with
  | Dpll.Sat model -> Some (Array.init npis (fun i -> model.(i)))
  | Dpll.Unsat -> None

(* --- BDD classification ------------------------------------------------ *)

(* Boolean difference of gate [g]'s cover with respect to the on-path
   *signal* [x]: every pin fed by [x] is substituted together, so a
   gate wired to [x] on several pins is treated as one dependency.
   Cached per (gate, on-path signal) — neighbouring near-critical
   paths share almost all of their gates. *)
let gate_condition cache ctx g x =
  match Hashtbl.find_opt cache (g, x) with
  | Some c -> c
  | None ->
    let man = ctx.Spcf.Ctx.man and funcs = ctx.Spcf.Ctx.funcs in
    let net = Spcf.Ctx.network ctx in
    let nd =
      match Network.node_of net g with Some nd -> nd | None -> assert false
    in
    let subst c =
      Array.map (fun f -> if f = x then c else funcs.(f)) nd.Network.fanins
    in
    let f1 = Bdd.cover_with man nd.Network.func (subst Bdd.btrue) in
    let f0 = Bdd.cover_with man nd.Network.func (subst Bdd.bfalse) in
    let cond = Bdd.bxor man f1 f0 in
    Hashtbl.add cache (g, x) cond;
    cond

exception Dead

let classify_one ~cache ctx ~npis path =
  Obs.incr c_paths;
  let verdict =
    match
      let man = ctx.Spcf.Ctx.man in
      let net = Spcf.Ctx.network ctx in
      let sigs = path.Paths.signals in
      let cond = ref Bdd.btrue in
      (try
         for i = 1 to Array.length sigs - 1 do
           cond := Bdd.band man !cond (gate_condition cache ctx sigs.(i) sigs.(i - 1));
           if !cond = Bdd.bfalse then raise Dead
         done
       with Dead -> ());
      if !cond = Bdd.bfalse then False
      else begin
        (* The BDD says satisfiable: the independent DPLL engine must
           produce a witness, and the BDD must accept it. Either
           failure is an engine disagreement, not a verdict. *)
        match
          witness_of_path ~budget:ctx.Spcf.Ctx.budget net ~npis path
        with
        | Some w ->
          if not (Bdd.eval man !cond w) then
            failwith "Sensitization: SAT witness rejected by BDD condition";
          True w
        | None ->
          failwith "Sensitization: engines disagree (BDD sat, DPLL unsat)"
      end
    with
    | v -> v
    | exception Budget.Budget_exceeded r -> Unknown r
  in
  (match verdict with
  | True _ -> Obs.incr c_true
  | False -> Obs.incr c_false
  | Unknown _ -> Obs.incr c_unknown);
  { path; verdict }

(* --- report assembly --------------------------------------------------- *)

let summarize sta net ~target ~truncated classified =
  Array.to_list (Network.outputs net)
  |> List.map (fun (name, s) ->
         let mine = List.filter (fun c -> c.path.Paths.output = name) classified in
         let count p = List.length (List.filter p mine) in
         let topological = Sta.arrival sta s in
         let functional =
           if truncated || mine = [] then topological
           else
             List.fold_left
               (fun acc c ->
                 match c.verdict with
                 | False -> acc
                 | True _ | Unknown _ -> Float.max acc c.path.Paths.length)
               target mine
         in
         {
           output = name;
           signal = s;
           num_paths = List.length mine;
           num_true = count (fun c -> match c.verdict with True _ -> true | _ -> false);
           num_false = count (fun c -> c.verdict = False);
           num_unknown =
             count (fun c -> match c.verdict with Unknown _ -> true | _ -> false);
           topological;
           functional;
         })

let make_report ctx ~jobs enum classified =
  let sta = ctx.Spcf.Ctx.sta in
  let net = Spcf.Ctx.network ctx in
  let summaries =
    summarize sta net ~target:enum.Paths.target ~truncated:enum.Paths.truncated
      classified
  in
  {
    band = enum.Paths.band;
    target = enum.Paths.target;
    delta = Sta.delta sta;
    model = ctx.Spcf.Ctx.model;
    truncated = enum.Paths.truncated;
    jobs;
    paths = classified;
    summaries;
    functional_delta =
      List.fold_left (fun acc s -> Float.max acc s.functional) 0. summaries;
  }

(* Classify an explicit path subset sequentially with one shared
   Boolean-difference cache — the incremental/ECO integration point:
   [Eco.recompute] reuses verdicts for paths whose cone is clean and
   hands only the stale remainder here. *)
let classify_paths ctx paths =
  let net = Spcf.Ctx.network ctx in
  let npis = Array.length (Network.inputs net) in
  let cache = Hashtbl.create 64 in
  List.map (classify_one ~cache ctx ~npis) paths

let assemble = make_report

let analyze_ctx ?(band = 0.1) ?(max_paths = 4096) ?jobs ctx =
  let jobs = match jobs with Some j -> max 1 j | None -> 1 in
  Obs.enter "sens.analyze";
  Fun.protect ~finally:Obs.leave (fun () ->
      let enum = Paths.enumerate ~band ~max_paths ctx.Spcf.Ctx.sta in
      let net = Spcf.Ctx.network ctx in
      let npis = Array.length (Network.inputs net) in
      (* Verdicts are a per-path pure function, so the merged list is
         byte-identical for every [jobs]. Workers never raise — budget
         exhaustion is a per-path [Unknown] verdict, not a team
         failure. *)
      let classified =
        Spcf.Parallel.map ctx ~jobs (Array.of_list enum.Paths.paths) (fun chunk ->
            let cache = Hashtbl.create 64 in
            Array.to_list (Array.map (classify_one ~cache ctx ~npis) chunk))
      in
      make_report ctx ~jobs enum classified)

let analyze ?model ?(band = 0.1) ?(max_paths = 4096) ?jobs ?budget circuit =
  let jobs = match jobs with Some j -> max 1 j | None -> 1 in
  let shared = Spcf.Parallel.needs_shared ~jobs in
  match Spcf.Ctx.create ?model ?budget ~shared circuit with
  | ctx -> analyze_ctx ~band ~max_paths ~jobs ctx
  | exception Budget.Budget_exceeded r ->
    (* The budget died while the context built the circuit's BDDs:
       no verdict can be computed, but the topological enumeration is
       cheap and every path is soundly [Unknown]. *)
    let sta = Sta.analyze ?model circuit in
    let net = Mapped.network circuit in
    let enum = Paths.enumerate ~band ~max_paths sta in
    let classified =
      List.map
        (fun path ->
          Obs.incr c_paths;
          Obs.incr c_unknown;
          { path; verdict = Unknown r })
        enum.Paths.paths
    in
    let summaries =
      summarize sta net ~target:enum.Paths.target ~truncated:true classified
    in
    {
      band = enum.Paths.band;
      target = enum.Paths.target;
      delta = Sta.delta sta;
      model = Sta.model sta;
      truncated = enum.Paths.truncated;
      jobs;
      paths = classified;
      summaries;
      functional_delta =
        List.fold_left (fun acc s -> Float.max acc s.functional) 0. summaries;
    }

(* --- consumers' view --------------------------------------------------- *)

let false_outputs report =
  if report.truncated then []
  else
    List.filter_map
      (fun s ->
        if s.num_paths > 0 && s.num_false = s.num_paths then Some s.output
        else None)
      report.summaries

let counts report =
  List.fold_left
    (fun (t, f, u) c ->
      match c.verdict with
      | True _ -> (t + 1, f, u)
      | False -> (t, f + 1, u)
      | Unknown _ -> (t, f, u + 1))
    (0, 0, 0) report.paths
