(* Incremental/ECO recompute: an editable cell-level design with stable
   signal ids, dirty-cone computation per edit, and a snapshot type
   from which everything outside the cone — BDD node functions, SPCF
   handles, masking covers, sensitization verdicts — is reused
   verbatim.

   Soundness of reuse rests on three facts. (1) The dirty set is the
   transitive *fanout* closure of the edit seeds, so a clean signal has
   a fully clean fanin cone: its global function, integer gate delay
   and arrival time are bit-identical to the snapshot's. (2) ROBDDs
   are canonical per manager: recomputing a clean function would
   intern to the very handle the snapshot already holds, so reusing
   the handle is not an approximation. (3) Σ_y is a function of the
   cone's node functions, their delay/arrival units and the integer
   target — all unchanged for a clean output when Δ is unchanged.
   A Δ change moves the target for *every* output, so it invalidates
   all Σ (node functions are still reused). See DESIGN.md §15. *)

type gate = { gname : string; cell : Cell.t; fanins : int array }

type design = {
  pi_names : string array;
  gates : gate option array;
  outputs : (string * int) list;
}

let num_pis d = Array.length d.pi_names
let num_signals d = num_pis d + Array.length d.gates

let gate_of d s =
  let npi = num_pis d in
  if s < npi then None else d.gates.(s - npi)

let live d s =
  s >= 0 && s < num_signals d && (s < num_pis d || gate_of d s <> None)

let signal_name d s =
  if s < num_pis d then d.pi_names.(s)
  else
    match gate_of d s with
    | Some g -> g.gname
    | None -> invalid_arg "Eco.signal_name: dead slot"

let find_signal d name =
  let npi = num_pis d in
  let found = ref None in
  Array.iteri (fun i n -> if !found = None && n = name then found := Some i) d.pi_names;
  Array.iteri
    (fun j g ->
      match g with
      | Some g when !found = None && g.gname = name -> found := Some (npi + j)
      | _ -> ())
    d.gates;
  !found

let design_of_mapped circuit =
  let net = Mapped.network circuit in
  let inputs = Network.inputs net in
  let npi = Array.length inputs in
  let nsig = Network.num_signals net in
  let map = Array.make nsig (-1) in
  Array.iteri (fun i s -> map.(s) <- i) inputs;
  let gates = ref [] and slot = ref 0 in
  for s = 0 to nsig - 1 do
    if not (Network.is_input net s) then begin
      let cell =
        match Mapped.cell_of circuit s with
        | Some c -> c
        | None ->
          invalid_arg
            (Printf.sprintf "Eco.design_of_mapped: node %s carries no library cell"
               (Network.name_of net s))
      in
      let fanins = Array.map (fun f -> map.(f)) (Network.fanins net s) in
      gates := Some { gname = Network.name_of net s; cell; fanins } :: !gates;
      map.(s) <- npi + !slot;
      incr slot
    end
  done;
  let outputs =
    Array.to_list (Network.outputs net) |> List.map (fun (n, s) -> (n, map.(s)))
  in
  {
    pi_names = Array.map (Network.name_of net) inputs;
    gates = Array.of_list (List.rev !gates);
    outputs;
  }

let lower d =
  let m = Mapped.create () in
  let npi = num_pis d in
  let sig_of = Array.make (num_signals d) (-1) in
  Array.iteri (fun i name -> sig_of.(i) <- Mapped.add_input m name) d.pi_names;
  Array.iteri
    (fun j g ->
      match g with
      | None -> ()
      | Some g ->
        sig_of.(npi + j) <-
          Mapped.add_gate m ~name:g.gname g.cell
            (Array.map (fun f -> sig_of.(f)) g.fanins))
    d.gates;
  List.iter (fun (name, s) -> Mapped.mark_output m ~name sig_of.(s)) d.outputs;
  (m, sig_of)

(* --- edits ------------------------------------------------------------- *)

type edit =
  | Replace of { target : int; cell : Cell.t; fanins : int array }
  | Rewire of { target : int; pin : int; fanin : int }
  | Add of { aname : string; cell : Cell.t; fanins : int array }
  | Remove of { target : int }
  | Add_output of { oname : string; target : int }
  | Drop_output of { oname : string }

type applied = { next : design; seeds : int list; load_seeds : int list }

let failf fmt = Printf.ksprintf invalid_arg fmt

let check_gate d what target =
  let npi = num_pis d in
  if target < npi || target >= num_signals d then
    failf "Eco.apply: %s target %d is not a gate slot" what target;
  match d.gates.(target - npi) with
  | Some g -> g
  | None -> failf "Eco.apply: %s target %d is a removed slot" what target

(* Fanins must be PIs or strictly earlier slots: slot order then stays a
   topological order, which [lower] relies on and which rules out
   cycles by construction. [bound] is the consuming slot's signal (or
   [num_signals] for a freshly appended slot). *)
let check_fanins d what ~bound cell fanins =
  if Array.length fanins <> cell.Cell.arity then
    failf "Eco.apply: %s needs %d fanins for %s, got %d" what cell.Cell.arity
      cell.Cell.cname (Array.length fanins);
  Array.iter
    (fun f ->
      if not (live d f) then failf "Eco.apply: %s fanin %d is not a live signal" what f;
      if f >= bound then
        failf "Eco.apply: %s fanin %d must precede slot signal %d" what f bound)
    fanins

let dedup l = List.sort_uniq compare l

let apply d edit =
  match edit with
  | Replace { target; cell; fanins } ->
    let g = check_gate d "replace" target in
    check_fanins d "replace" ~bound:target cell fanins;
    let gates = Array.copy d.gates in
    gates.(target - num_pis d) <- Some { g with cell; fanins };
    {
      next = { d with gates };
      seeds = [ target ];
      load_seeds = dedup (Array.to_list g.fanins @ Array.to_list fanins);
    }
  | Rewire { target; pin; fanin } ->
    let g = check_gate d "rewire" target in
    if pin < 0 || pin >= Array.length g.fanins then
      failf "Eco.apply: rewire pin %d out of range for %s" pin g.cell.Cell.cname;
    if not (live d fanin) then failf "Eco.apply: rewire fanin %d is not live" fanin;
    if fanin >= target then
      failf "Eco.apply: rewire fanin %d must precede slot signal %d" fanin target;
    let fanins = Array.copy g.fanins in
    let old = fanins.(pin) in
    fanins.(pin) <- fanin;
    let gates = Array.copy d.gates in
    gates.(target - num_pis d) <- Some { g with fanins };
    { next = { d with gates }; seeds = [ target ]; load_seeds = dedup [ old; fanin ] }
  | Add { aname; cell; fanins } ->
    if find_signal d aname <> None then
      failf "Eco.apply: add name %S already in use" aname;
    let ns = num_signals d in
    check_fanins d "add" ~bound:ns cell fanins;
    let gates = Array.append d.gates [| Some { gname = aname; cell; fanins } |] in
    { next = { d with gates }; seeds = [ ns ]; load_seeds = dedup (Array.to_list fanins) }
  | Remove { target } ->
    let g = check_gate d "remove" target in
    if Array.length g.fanins = 0 then
      failf "Eco.apply: cannot remove source gate %s" g.gname;
    let repl = g.fanins.(0) in
    let npi = num_pis d in
    let seeds = ref [] in
    let gates =
      Array.mapi
        (fun j go ->
          match go with
          | None -> None
          | Some gg ->
            if Array.exists (fun f -> f = target) gg.fanins then begin
              seeds := (npi + j) :: !seeds;
              let fanins = Array.map (fun f -> if f = target then repl else f) gg.fanins in
              Some { gg with fanins }
            end
            else go)
        d.gates
    in
    gates.(target - npi) <- None;
    let outputs =
      List.map (fun (n, s) -> if s = target then (n, repl) else (n, s)) d.outputs
    in
    {
      next = { d with gates; outputs };
      seeds = dedup !seeds;
      load_seeds = dedup (Array.to_list g.fanins);
    }
  | Add_output { oname; target } ->
    if List.mem_assoc oname d.outputs then
      failf "Eco.apply: output name %S already in use" oname;
    if not (live d target) then
      failf "Eco.apply: add-output target %d is not live" target;
    {
      next = { d with outputs = d.outputs @ [ (oname, target) ] };
      seeds = [];
      load_seeds = [ target ];
    }
  | Drop_output { oname } ->
    (match List.assoc_opt oname d.outputs with
    | None -> failf "Eco.apply: no output named %S" oname
    | Some target ->
      if List.length d.outputs <= 1 then
        failf "Eco.apply: cannot drop the last output %S" oname;
      let outputs = List.filter (fun (n, _) -> n <> oname) d.outputs in
      { next = { d with outputs }; seeds = []; load_seeds = [ target ] })

let apply_all d edits =
  let d', seeds, loads =
    List.fold_left
      (fun (d, seeds, loads) e ->
        let a = apply d e in
        (a.next, a.seeds @ seeds, a.load_seeds @ loads))
      (d, [], []) edits
  in
  (d', dedup (List.filter (live d') seeds), dedup (List.filter (live d') loads))

(* Consumer lists in design-signal space: outputs do not propagate. *)
let consumers d =
  let npi = num_pis d in
  let cons = Array.make (num_signals d) [] in
  Array.iteri
    (fun j g ->
      match g with
      | None -> ()
      | Some g -> Array.iter (fun f -> cons.(f) <- (npi + j) :: cons.(f)) g.fanins)
    d.gates;
  cons

let closure_of cons d seeds =
  let dirty = Array.make (num_signals d) false in
  let rec go s =
    if not dirty.(s) then begin
      dirty.(s) <- true;
      List.iter go cons.(s)
    end
  in
  List.iter (fun s -> if live d s then go s) seeds;
  dirty

let dirty_cone d ~model seeds load_seeds =
  let seeds =
    match model with
    | Sta.Library_load _ ->
      (* Only under the load-dependent model does a changed fanout load
         move a gate's delay; PI "delays" are 0 under every model, so
         PI load seeds are inert and excluded to keep cones tight. *)
      seeds @ List.filter (fun s -> s >= num_pis d) load_seeds
    | Sta.Unit | Sta.Paper_units | Sta.Library -> seeds
  in
  closure_of (consumers d) d seeds

(* --- edit-list text format --------------------------------------------- *)

let edit_to_string d = function
  | Replace { target; cell; fanins } ->
    Printf.sprintf "replace %s %s %s" (signal_name d target) cell.Cell.cname
      (String.concat " " (Array.to_list (Array.map (signal_name d) fanins)))
  | Rewire { target; pin; fanin } ->
    Printf.sprintf "rewire %s %d %s" (signal_name d target) pin (signal_name d fanin)
  | Add { aname; cell; fanins } ->
    Printf.sprintf "add %s %s %s" aname cell.Cell.cname
      (String.concat " " (Array.to_list (Array.map (signal_name d) fanins)))
  | Remove { target } -> Printf.sprintf "remove %s" (signal_name d target)
  | Add_output { oname; target } ->
    Printf.sprintf "add-output %s %s" oname (signal_name d target)
  | Drop_output { oname } -> Printf.sprintf "drop-output %s" oname

let edits_to_string d edits =
  let _, lines =
    List.fold_left
      (fun (d, lines) e -> ((apply d e).next, edit_to_string d e :: lines))
      (d, []) edits
  in
  String.concat "\n" (List.rev lines) ^ "\n"

let parse_edits d text =
  let resolve d ln what name =
    match find_signal d name with
    | Some s -> s
    | None -> failf "edits line %d: unknown %s signal %S" ln what name
  in
  let cell_named ln name =
    match Cell.find name with
    | Some c -> c
    | None -> failf "edits line %d: unknown cell %S" ln name
  in
  let int_of ln what tok =
    match int_of_string_opt tok with
    | Some i -> i
    | None -> failf "edits line %d: %s %S is not an integer" ln what tok
  in
  let lines = String.split_on_char '\n' text in
  let _, edits =
    List.fold_left
      (fun ((d, edits) as acc) (ln, line) ->
        let toks =
          String.split_on_char ' ' (String.trim line) |> List.filter (fun t -> t <> "")
        in
        match toks with
        | [] -> acc
        | hd :: _ when String.length hd > 0 && hd.[0] = '#' -> acc
        | "replace" :: target :: cname :: fanins ->
          let e =
            Replace
              {
                target = resolve d ln "target" target;
                cell = cell_named ln cname;
                fanins = Array.of_list (List.map (resolve d ln "fanin") fanins);
              }
          in
          ((apply d e).next, e :: edits)
        | [ "rewire"; target; pin; fanin ] ->
          let e =
            Rewire
              {
                target = resolve d ln "target" target;
                pin = int_of ln "pin" pin;
                fanin = resolve d ln "fanin" fanin;
              }
          in
          ((apply d e).next, e :: edits)
        | "add" :: aname :: cname :: fanins ->
          let e =
            Add
              {
                aname;
                cell = cell_named ln cname;
                fanins = Array.of_list (List.map (resolve d ln "fanin") fanins);
              }
          in
          ((apply d e).next, e :: edits)
        | [ "remove"; target ] ->
          let e = Remove { target = resolve d ln "target" target } in
          ((apply d e).next, e :: edits)
        | [ "add-output"; oname; target ] ->
          let e = Add_output { oname; target = resolve d ln "target" target } in
          ((apply d e).next, e :: edits)
        | [ "drop-output"; oname ] ->
          let e = Drop_output { oname } in
          ((apply d e).next, e :: edits)
        | verb :: _ -> failf "edits line %d: unknown or malformed edit %S" ln verb)
      (d, [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  List.rev edits

(* --- snapshots --------------------------------------------------------- *)

type stats = {
  total_signals : int;
  dirty_signals : int;
  funcs_reused : int;
  funcs_rebuilt : int;
  sigmas_reused : int;
  sigmas_recomputed : int;
  delta_changed : bool;
}

type t = {
  design : design;
  circuit : Mapped.t;
  sig_of : int array;
  ctx : Spcf.Ctx.t;
  theta : float;
  band : float option;
  delta : float;
  target : float;
  sigmas : (string * Network.signal * Bdd.t) list;
  covers : (string * Logic2.Cover.t) list;
  sens : Sensitization.report option;
  stats : stats;
}

let c_dirty = Obs.counter "eco.dirty_signals"
let c_funcs_reused = Obs.counter "eco.funcs.reused"
let c_funcs_rebuilt = Obs.counter "eco.funcs.rebuilt"
let c_sigmas_reused = Obs.counter "eco.sigmas.reused"
let c_sigmas_recomputed = Obs.counter "eco.sigmas.recomputed"

let snapshot ?(theta = Spcf.Ctx.paper_theta) ?(model = Sta.Library) ?band ?(jobs = 1)
    ?(budget = Budget.unlimited) design =
  let circuit, sig_of = lower design in
  let ctx = Spcf.Ctx.create ~model ~budget circuit in
  let delta = Spcf.Ctx.delta ctx in
  let target = Spcf.Ctx.target_of_theta ctx theta in
  let critical = Sta.critical_outputs ctx.Spcf.Ctx.sta ~target in
  let sigmas =
    Spcf.Parallel.sigmas ctx ~jobs ~algorithm:Short_path critical
      ~target_units:(Spcf.Ctx.units_of_target target)
  in
  let covers =
    List.map (fun (nm, _, sigma) -> (nm, Isop.of_bdd ctx.Spcf.Ctx.man sigma)) sigmas
  in
  let sens = Option.map (fun band -> Sensitization.analyze_ctx ~band ~jobs ctx) band in
  let total = Network.num_signals (Mapped.network circuit) in
  {
    design;
    circuit;
    sig_of;
    ctx;
    theta;
    band;
    delta;
    target;
    sigmas;
    covers;
    sens;
    stats =
      {
        total_signals = total;
        dirty_signals = total;
        funcs_reused = 0;
        funcs_rebuilt = total;
        sigmas_reused = 0;
        sigmas_recomputed = List.length sigmas;
        delta_changed = false;
      };
  }

let path_key net path =
  path.Paths.output ^ "|"
  ^ String.concat ">"
      (Array.to_list (Array.map (Network.name_of net) path.Paths.signals))

let recompute ?(jobs = 1) t edits =
  Obs.enter "eco.recompute";
  Fun.protect ~finally:Obs.leave @@ fun () ->
  let d0 = t.design in
  let d1, seeds, load_seeds = apply_all d0 edits in
  let model = t.ctx.Spcf.Ctx.model in
  let dirty = dirty_cone d1 ~model seeds load_seeds in
  let circuit, sig_of = lower d1 in
  let net = Mapped.network circuit in
  let man = t.ctx.Spcf.Ctx.man in
  let sta = Sta.analyze ~model circuit in
  let old_nsig = Array.length t.sig_of in
  (* Node functions: a clean signal that existed before keeps its BDD
     handle; only the dirty cone (and fresh slots) rebuilds. *)
  let design_of = Array.make (Network.num_signals net) (-1) in
  Array.iteri (fun s n' -> if n' >= 0 then design_of.(n') <- s) sig_of;
  let funcs_reused = ref 0 and funcs_rebuilt = ref 0 in
  let reuse n' =
    let s = design_of.(n') in
    if (not dirty.(s)) && s < old_nsig && live d0 s then begin
      incr funcs_reused;
      Some t.ctx.Spcf.Ctx.funcs.(t.sig_of.(s))
    end
    else begin
      incr funcs_rebuilt;
      None
    end
  in
  let funcs = Network.elaborate ~reuse man net in
  let ctx =
    Spcf.Ctx.of_funcs ~model ~sta ~budget:t.ctx.Spcf.Ctx.budget circuit man funcs
  in
  let delta = Spcf.Ctx.delta ctx in
  let delta_changed = not (Float.equal delta t.delta) in
  let target = Spcf.Ctx.target_of_theta ctx t.theta in
  let critical = Sta.critical_outputs sta ~target in
  (* Σ reuse: same (name, design signal) output as before, signal
     clean, Δ unchanged, and the snapshot actually holds its Σ. *)
  let reusable nm =
    (not delta_changed)
    &&
    match List.assoc_opt nm d1.outputs with
    | None -> false
    | Some sd -> (
      (not dirty.(sd))
      && List.assoc_opt nm d0.outputs = Some sd
      &&
      match List.find_opt (fun (n, _, _) -> n = nm) t.sigmas with
      | Some _ -> true
      | None -> false)
  in
  let to_recompute =
    Array.of_list
      (List.filter (fun (nm, _) -> not (reusable nm)) (Array.to_list critical))
  in
  let recomputed =
    Spcf.Parallel.sigmas ctx ~jobs ~algorithm:Short_path to_recompute
      ~target_units:(Spcf.Ctx.units_of_target target)
  in
  let fresh = Hashtbl.create 16 in
  List.iter (fun ((nm, _, _) as r) -> Hashtbl.replace fresh nm r) recomputed;
  let sigmas_reused = ref 0 and sigmas_recomputed = ref 0 in
  let sigmas =
    Array.to_list critical
    |> List.map (fun (nm, y) ->
           match Hashtbl.find_opt fresh nm with
           | Some r ->
             incr sigmas_recomputed;
             r
           | None ->
             incr sigmas_reused;
             let _, _, sigma = List.find (fun (n, _, _) -> n = nm) t.sigmas in
             (nm, y, sigma))
  in
  let covers =
    List.map
      (fun (nm, _, sigma) ->
        if Hashtbl.mem fresh nm then (nm, Isop.of_bdd man sigma)
        else (nm, List.assoc nm t.covers))
      sigmas
  in
  let sens =
    match t.band with
    | None -> None
    | Some band ->
      let enum = Paths.enumerate ~band ~max_paths:4096 sta in
      (* A verdict is a pure function of the path's fanin cone; the
         cone of a clean output is entirely clean, so any old verdict
         for the identical (by names) path is reused as-is. Witnesses
         stay valid because PI positions never move. *)
      let old_verdicts = Hashtbl.create 64 in
      (match t.sens with
      | None -> ()
      | Some r ->
        let old_net = Mapped.network t.circuit in
        List.iter
          (fun c ->
            Hashtbl.replace old_verdicts
              (path_key old_net c.Sensitization.path)
              c.Sensitization.verdict)
          r.Sensitization.paths);
      let output_clean nm =
        match List.assoc_opt nm d1.outputs with
        | Some sd -> (not dirty.(sd)) && List.assoc_opt nm d0.outputs = Some sd
        | None -> false
      in
      let slots =
        List.map
          (fun p ->
            if output_clean p.Paths.output then
              match Hashtbl.find_opt old_verdicts (path_key net p) with
              | Some v -> Either.Left { Sensitization.path = p; verdict = v }
              | None -> Either.Right p
            else Either.Right p)
          enum.Paths.paths
      in
      let stale = List.filter_map (function Either.Right p -> Some p | _ -> None) slots in
      let classified = Sensitization.classify_paths ctx stale in
      let rec merge slots classified =
        match (slots, classified) with
        | [], [] -> []
        | Either.Left c :: rest, cl -> c :: merge rest cl
        | Either.Right _ :: rest, c :: cl -> c :: merge rest cl
        | Either.Right _ :: _, [] | [], _ :: _ -> assert false
      in
      Some (Sensitization.assemble ctx ~jobs enum (merge slots classified))
  in
  let total = Network.num_signals net in
  let dirty_count = ref 0 in
  for s = 0 to num_signals d1 - 1 do
    if live d1 s && dirty.(s) then incr dirty_count
  done;
  Obs.add c_dirty !dirty_count;
  Obs.add c_funcs_reused !funcs_reused;
  Obs.add c_funcs_rebuilt !funcs_rebuilt;
  Obs.add c_sigmas_reused !sigmas_reused;
  Obs.add c_sigmas_recomputed !sigmas_recomputed;
  {
    design = d1;
    circuit;
    sig_of;
    ctx;
    theta = t.theta;
    band = t.band;
    delta;
    target;
    sigmas;
    covers;
    sens;
    stats =
      {
        total_signals = total;
        dirty_signals = !dirty_count;
        funcs_reused = !funcs_reused;
        funcs_rebuilt = !funcs_rebuilt;
        sigmas_reused = !sigmas_reused;
        sigmas_recomputed = !sigmas_recomputed;
        delta_changed;
      };
  }

(* --- canonical form ---------------------------------------------------- *)

let model_to_string = function
  | Sta.Unit -> "unit"
  | Sta.Paper_units -> "paper"
  | Sta.Library -> "library"
  | Sta.Library_load slope -> Printf.sprintf "library-load %h" slope

let model_of_string s =
  match String.split_on_char ' ' s with
  | [ "unit" ] -> Sta.Unit
  | [ "paper" ] -> Sta.Paper_units
  | [ "library" ] -> Sta.Library
  | [ "library-load"; slope ] -> Sta.Library_load (float_of_string slope)
  | _ -> failf "Eco: unknown delay model %S" s

let dag_to_buf b (vars, lows, highs, root) =
  let ints a = Array.iter (fun v -> Printf.bprintf b " %d" v) a in
  Printf.bprintf b "dag %d %d" root (Array.length vars);
  ints vars;
  ints lows;
  ints highs;
  Buffer.add_char b '\n'

let cover_to_buf b cover =
  Printf.bprintf b "cover %d %d" (Logic2.Cover.num_vars cover)
    (Logic2.Cover.num_cubes cover);
  List.iter
    (fun cube ->
      Buffer.add_string b " ;";
      List.iter
        (fun (v, pos) -> Printf.bprintf b " %d:%c" v (if pos then '1' else '0'))
        (Logic2.Cube.literals cube))
    (Logic2.Cover.cubes cover);
  Buffer.add_char b '\n'

let canonical t =
  let b = Buffer.create 4096 in
  let net = Mapped.network t.circuit in
  let sta = t.ctx.Spcf.Ctx.sta in
  Printf.bprintf b "emask-eco canonical/1\n";
  Printf.bprintf b "model %s\n" (model_to_string t.ctx.Spcf.Ctx.model);
  Printf.bprintf b "theta %h\n" t.theta;
  (match t.band with
  | None -> Printf.bprintf b "band -\n"
  | Some band -> Printf.bprintf b "band %h\n" band);
  Printf.bprintf b "delta %h\ntarget %h\n" t.delta t.target;
  let critical = List.map (fun (nm, _, _) -> nm) t.sigmas in
  List.iter
    (fun (nm, sd) ->
      let s = t.sig_of.(sd) in
      Printf.bprintf b "output %s arrival=%h critical=%b\n" nm (Sta.arrival sta s)
        (List.mem nm critical))
    t.design.outputs;
  List.iter
    (fun (nm, _, sigma) ->
      Printf.bprintf b "sigma %s " nm;
      dag_to_buf b (Spcf.Parallel.export t.ctx.Spcf.Ctx.man sigma))
    t.sigmas;
  List.iter
    (fun (nm, cover) ->
      Printf.bprintf b "mask %s " nm;
      cover_to_buf b cover)
    t.covers;
  (match t.sens with
  | None -> ()
  | Some r ->
    (* Witness patterns are deliberately excluded: DPLL decision order
       follows internal ids, which legally shift across edits. *)
    Printf.bprintf b "sens band=%h target=%h truncated=%b functional_delta=%h\n"
      r.Sensitization.band r.Sensitization.target r.Sensitization.truncated
      r.Sensitization.functional_delta;
    List.iter
      (fun c ->
        Printf.bprintf b "path %s %s len=%h\n"
          (path_key net c.Sensitization.path)
          (Sensitization.verdict_name c.Sensitization.verdict)
          c.Sensitization.path.Paths.length)
      r.Sensitization.paths;
    List.iter
      (fun s ->
        Printf.bprintf b "summary %s paths=%d t=%d f=%d u=%d topo=%h func=%h\n"
          s.Sensitization.output s.Sensitization.num_paths s.Sensitization.num_true
          s.Sensitization.num_false s.Sensitization.num_unknown
          s.Sensitization.topological s.Sensitization.functional)
      r.Sensitization.summaries);
  Buffer.contents b

let fingerprint t = Digest.to_hex (Digest.string (canonical t))

(* --- persistence ------------------------------------------------------- *)

let serialize t =
  let b = Buffer.create 4096 in
  Printf.bprintf b "emask-eco/1\n";
  Printf.bprintf b "model %s\n" (model_to_string t.ctx.Spcf.Ctx.model);
  Printf.bprintf b "theta %h\n" t.theta;
  (match t.band with
  | None -> Printf.bprintf b "band -\n"
  | Some band -> Printf.bprintf b "band %h\n" band);
  Printf.bprintf b "delta %h\n" t.delta;
  Printf.bprintf b "pis %d\n" (num_pis t.design);
  Array.iter (fun n -> Printf.bprintf b "pi %s\n" n) t.design.pi_names;
  Printf.bprintf b "slots %d\n" (Array.length t.design.gates);
  Array.iter
    (fun g ->
      match g with
      | None -> Printf.bprintf b "slot dead\n"
      | Some g ->
        Printf.bprintf b "slot %s %s" g.gname g.cell.Cell.cname;
        Array.iter (fun f -> Printf.bprintf b " %d" f) g.fanins;
        Buffer.add_char b '\n')
    t.design.gates;
  Printf.bprintf b "outputs %d\n" (List.length t.design.outputs);
  List.iter (fun (n, s) -> Printf.bprintf b "out %s %d\n" n s) t.design.outputs;
  Printf.bprintf b "sigmas %d\n" (List.length t.sigmas);
  List.iter
    (fun (nm, _, sigma) ->
      Printf.bprintf b "sigma %s " nm;
      dag_to_buf b (Spcf.Parallel.export t.ctx.Spcf.Ctx.man sigma))
    t.sigmas;
  List.iter
    (fun (nm, cover) ->
      Printf.bprintf b "mask %s " nm;
      cover_to_buf b cover)
    t.covers;
  Buffer.contents b

let parse_dag toks =
  match toks with
  | "dag" :: root :: len :: rest ->
    let root = int_of_string root and len = int_of_string len in
    let rest = Array.of_list (List.map int_of_string rest) in
    if Array.length rest <> 3 * len then failf "Eco.deserialize: truncated dag";
    ( Array.sub rest 0 len,
      Array.sub rest len len,
      Array.sub rest (2 * len) len,
      root )
  | _ -> failf "Eco.deserialize: malformed dag"

let parse_cover toks =
  match toks with
  | "cover" :: nvars :: _ncubes :: rest ->
    let nvars = int_of_string nvars in
    let cubes =
      List.fold_left
        (fun acc tok ->
          if tok = ";" then [] :: acc
          else
            match (acc, String.split_on_char ':' tok) with
            | lits :: acc', [ v; p ] ->
              ((int_of_string v, p = "1") :: lits) :: acc'
            | _ -> failf "Eco.deserialize: malformed cover literal %S" tok)
        [] rest
    in
    Logic2.Cover.of_cubes nvars
      (List.rev_map (fun lits -> Logic2.Cube.make nvars (List.rev lits)) cubes)
  | _ -> failf "Eco.deserialize: malformed cover"

let deserialize text =
  let lines = ref (String.split_on_char '\n' text) in
  let next () =
    match !lines with
    | [] -> failf "Eco.deserialize: unexpected end of input"
    | l :: rest ->
      lines := rest;
      l
  in
  let expect_toks tag =
    let l = next () in
    match String.split_on_char ' ' l with
    | t :: rest when t = tag -> rest
    | _ -> failf "Eco.deserialize: expected %S, got %S" tag l
  in
  let expect1 tag =
    match expect_toks tag with
    | [ v ] -> v
    | _ -> failf "Eco.deserialize: malformed %S line" tag
  in
  if next () <> "emask-eco/1" then failf "Eco.deserialize: not an emask-eco/1 snapshot";
  let model = model_of_string (String.concat " " (expect_toks "model")) in
  let theta = float_of_string (expect1 "theta") in
  let band =
    match expect1 "band" with "-" -> None | v -> Some (float_of_string v)
  in
  let delta_stored = float_of_string (expect1 "delta") in
  let npi = int_of_string (expect1 "pis") in
  let pi_names = Array.init npi (fun _ -> expect1 "pi") in
  let nslots = int_of_string (expect1 "slots") in
  let gates =
    Array.init nslots (fun _ ->
        match expect_toks "slot" with
        | [ "dead" ] -> None
        | gname :: cname :: fanins ->
          let cell =
            match Cell.find cname with
            | Some c -> c
            | None -> failf "Eco.deserialize: unknown cell %S" cname
          in
          Some { gname; cell; fanins = Array.of_list (List.map int_of_string fanins) }
        | _ -> failf "Eco.deserialize: malformed slot line")
  in
  let nout = int_of_string (expect1 "outputs") in
  let outputs =
    List.init nout (fun _ ->
        match expect_toks "out" with
        | [ n; s ] -> (n, int_of_string s)
        | _ -> failf "Eco.deserialize: malformed out line")
  in
  let design = { pi_names; gates; outputs } in
  let circuit, sig_of = lower design in
  let ctx = Spcf.Ctx.create ~model circuit in
  let delta = Spcf.Ctx.delta ctx in
  if not (Float.equal delta delta_stored) then
    failf "Eco.deserialize: stored delta %h disagrees with STA %h" delta_stored delta;
  let target = Spcf.Ctx.target_of_theta ctx theta in
  let critical = Sta.critical_outputs ctx.Spcf.Ctx.sta ~target in
  let nsig = int_of_string (expect1 "sigmas") in
  if nsig <> Array.length critical then
    failf "Eco.deserialize: %d stored sigmas for %d critical outputs" nsig
      (Array.length critical);
  let man = ctx.Spcf.Ctx.man in
  let sigmas =
    Array.to_list critical
    |> List.map (fun (nm, y) ->
           match expect_toks "sigma" with
           | n :: rest when n = nm -> (nm, y, Spcf.Parallel.import man (parse_dag rest))
           | l ->
             failf "Eco.deserialize: expected sigma %s, got %S" nm
               (String.concat " " l))
  in
  let covers =
    List.map
      (fun (nm, _, _) ->
        match expect_toks "mask" with
        | n :: rest when n = nm -> (nm, parse_cover rest)
        | l -> failf "Eco.deserialize: expected mask %s, got %S" nm (String.concat " " l))
      sigmas
  in
  let sens = Option.map (fun band -> Sensitization.analyze_ctx ~band ~jobs:1 ctx) band in
  let total = Network.num_signals (Mapped.network circuit) in
  {
    design;
    circuit;
    sig_of;
    ctx;
    theta;
    band;
    delta;
    target;
    sigmas;
    covers;
    sens;
    stats =
      {
        total_signals = total;
        dirty_signals = 0;
        funcs_reused = 0;
        funcs_rebuilt = total;
        sigmas_reused = List.length sigmas;
        sigmas_recomputed = 0;
        delta_changed = false;
      };
  }

(* --- bench/fuzz helper ------------------------------------------------- *)

(* Equal-delay, equal-load cell duals: swapping one changes the logic
   function but no delay or capacitance, so the dirty cone is exactly
   the gate's transitive fanout under every delay model. *)
let dual_of cell =
  let pairs =
    [ ("EO", "EN"); ("EN", "EO"); ("AOI21", "OAI21"); ("OAI21", "AOI21");
      ("AOI22", "OAI22"); ("OAI22", "AOI22") ]
  in
  Option.bind (List.assoc_opt cell.Cell.cname pairs) Cell.find

let smallest_cone_edit d =
  let cons = consumers d in
  let npi = num_pis d in
  let candidates = ref [] in
  Array.iteri
    (fun j g ->
      match g with
      | None -> ()
      | Some _ ->
        let s = npi + j in
        let dirty = closure_of cons d [ s ] in
        let size = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 dirty in
        candidates := (size, s) :: !candidates)
    d.gates;
  let sorted = List.sort compare (List.rev !candidates) in
  let edit_for (_, s) =
    let g = Option.get (gate_of d s) in
    match dual_of g.cell with
    | Some cell -> Some (Replace { target = s; cell; fanins = g.fanins })
    | None ->
      if Array.length g.fanins >= 2 then
        let rev = Array.of_list (List.rev (Array.to_list g.fanins)) in
        Some (Replace { target = s; cell = g.cell; fanins = rev })
      else None
  in
  List.fold_left
    (fun acc c -> match acc with Some _ -> acc | None -> edit_for c)
    None sorted
