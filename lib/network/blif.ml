(* Reader/writer for the combinational subset of BLIF: .model, .inputs,
   .outputs, .names (single-output on-set covers), .end. Latches and
   subcircuits are rejected — the paper's circuits are combinational.

   Parsing is two-staged: [parse_source] produces a raw netlist with
   source locations and no structural guarantees (the form the analysis
   passes lint), and [elaborate] builds the acyclic Network, failing
   with file:line positions on anything ill-formed. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type loc = { file : string option; line : int }

let loc_to_string l =
  match l.file with
  | Some f -> Printf.sprintf "%s:%d" f l.line
  | None -> Printf.sprintf "line %d" l.line

let fail_at loc fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (loc_to_string loc ^ ": " ^ s))) fmt

type raw_node = {
  out : string;
  ins : string list;
  rows : (string * char) list;
  nloc : loc;
}

type source = {
  src_file : string option;
  model : string option;
  src_inputs : (string * loc) list;
  src_outputs : (string * loc) list;
  nodes : raw_node list;
}

(* Logical lines with their 1-based physical line number: continuation
   lines ending in '\' are joined (keeping the number of the first),
   comments and blanks dropped, tokens split on spaces and tabs. *)
let tokenize_lines text =
  let raw = String.split_on_char '\n' text in
  let rec join acc start pending n = function
    | [] -> List.rev (if pending = "" then acc else (start, pending) :: acc)
    | line :: rest ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let start = if pending = "" then n else start in
      let line = String.trim (pending ^ " " ^ line) in
      if String.length line > 0 && line.[String.length line - 1] = '\\' then
        join acc start (String.sub line 0 (String.length line - 1)) (n + 1) rest
      else if line = "" then join acc 0 "" (n + 1) rest
      else join ((start, line) :: acc) 0 "" (n + 1) rest
  in
  let lines = join [] 0 "" 1 raw in
  List.filter_map
    (fun (n, l) ->
      let toks =
        String.split_on_char ' ' l
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      in
      if toks = [] then None else Some (n, toks))
    lines

type pending_names = { p_out : string; p_ins : string list; p_rows : (string * char) list; p_loc : loc }

let parse_source ?file text =
  let lines = tokenize_lines text in
  let at line = { file; line } in
  let model = ref None in
  let inputs = ref [] and outputs = ref [] and names = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some p ->
      names := { out = p.p_out; ins = p.p_ins; rows = List.rev p.p_rows; nloc = p.p_loc } :: !names;
      current := None
  in
  let handle (line, tokens) =
    let loc = at line in
    match tokens with
    | ".model" :: rest -> if !model = None then model := (match rest with m :: _ -> Some m | [] -> None)
    | ".inputs" :: ins -> inputs := !inputs @ List.map (fun i -> (i, loc)) ins
    | ".outputs" :: outs -> outputs := !outputs @ List.map (fun o -> (o, loc)) outs
    | ".names" :: signals -> begin
      flush ();
      match List.rev signals with
      | out :: ins_rev ->
        current := Some { p_out = out; p_ins = List.rev ins_rev; p_rows = []; p_loc = loc }
      | [] -> fail_at loc ".names with no signals"
    end
    | ".end" :: _ -> flush ()
    | (".latch" | ".subckt" | ".gate") :: _ ->
      fail_at loc "only combinational single-model BLIF is supported"
    | [ row; value ] when !current <> None ->
      let p = Option.get !current in
      if String.length value <> 1 || (value.[0] <> '0' && value.[0] <> '1') then
        fail_at loc "bad cover output value %S" value;
      current := Some { p with p_rows = (row, value.[0]) :: p.p_rows }
    | [ value ] when !current <> None && (value = "0" || value = "1") ->
      (* Constant node: a row with no input plane. *)
      let p = Option.get !current in
      current := Some { p with p_rows = ("", value.[0]) :: p.p_rows }
    | tok :: _ -> fail_at loc "unexpected token %S" tok
    | [] -> ()
  in
  List.iter handle lines;
  flush ();
  {
    src_file = file;
    model = !model;
    src_inputs = !inputs;
    src_outputs = !outputs;
    nodes = List.rev !names;
  }

let read_source path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_source ~file:path text

(* Strict elaboration of a raw source into an acyclic network. Nodes may
   appear in any order in BLIF, so they are inserted in dependency
   order. Every structural defect — duplicate inputs, multiply driven
   signals (including a .names block shadowing a declared input, which
   an earlier version silently dropped), undriven signals, cycles,
   mixed on/off rows — fails with a source position. *)
let elaborate src =
  let net = Network.create () in
  List.iter
    (fun (i, loc) ->
      if Network.find net i <> None then fail_at loc "input %S declared twice" i;
      ignore (Network.add_input net i))
    src.src_inputs;
  let defs = Hashtbl.create 64 in
  List.iter
    (fun p ->
      (match Hashtbl.find_opt defs p.out with
      | Some prev ->
        fail_at p.nloc "signal %S defined twice (first at %s)" p.out
          (loc_to_string prev.nloc)
      | None -> ());
      if Network.find net p.out <> None then
        fail_at p.nloc "signal %S is a declared input and may not be driven by .names"
          p.out;
      Hashtbl.replace defs p.out p)
    src.nodes;
  let in_progress = Hashtbl.create 64 in
  let rec ensure ?at name =
    match Network.find net name with
    | Some s -> s
    | None ->
      let p =
        match Hashtbl.find_opt defs name with
        | Some p -> p
        | None -> (
          let msg = Printf.ksprintf (fun s -> s) "undriven signal %S" name in
          match at with
          | Some loc -> fail_at loc "%s" msg
          | None -> fail "%s" msg)
      in
      if Hashtbl.mem in_progress name then
        fail_at p.nloc "combinational cycle through %S" name;
      Hashtbl.replace in_progress name ();
      let fanins = Array.of_list (List.map (ensure ~at:p.nloc) p.ins) in
      let arity = Array.length fanins in
      let on_rows = List.filter (fun (_, v) -> v = '1') p.rows in
      let off_rows = List.filter (fun (_, v) -> v = '0') p.rows in
      let cover_of rows =
        Logic2.Cover.of_cubes arity
          (List.map
             (fun (row, _) ->
               if row = "" then Logic2.Cube.universe arity
               else
                 try Logic2.Sop.cube_of_blif_row arity row
                 with _ -> fail_at p.nloc "bad cover row %S for %S" row name)
             rows)
      in
      let func =
        match (on_rows, off_rows) with
        | [], [] -> Logic2.Cover.zero arity
        | rows, [] -> cover_of rows
        | [], rows -> Logic2.Cover.complement (cover_of rows)
        | _ -> fail_at p.nloc "mixed on-set/off-set rows for %S" name
      in
      Hashtbl.remove in_progress name;
      Network.add_node net name ~fanins ~func
  in
  List.iter
    (fun (o, loc) -> Network.mark_output net ~name:o (ensure ~at:loc o))
    src.src_outputs;
  net

let parse text = elaborate (parse_source text)
let parse_file path = elaborate (read_source path)

let to_string ?(model = "circuit") net =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr ".model %s\n" model;
  let names arr = String.concat " " (Array.to_list arr) in
  pr ".inputs %s\n" (names (Array.map (Network.name_of net) (Network.inputs net)));
  pr ".outputs %s\n" (names (Array.map fst (Network.outputs net)));
  Array.iter
    (fun s ->
      match Network.node_of net s with
      | None -> ()
      | Some n ->
        pr ".names %s %s\n"
          (names (Array.map (Network.name_of net) n.Network.fanins))
          (Network.name_of net s);
        List.iter
          (fun c -> pr "%s 1\n" (Logic2.Sop.blif_row_of_cube c))
          (Logic2.Cover.cubes n.Network.func))
    (Network.topo_order net);
  (* Outputs that rename an existing signal need a pass-through node. *)
  Array.iter
    (fun (name, s) ->
      if Network.name_of net s <> name then begin
        pr ".names %s %s\n" (Network.name_of net s) name;
        pr "1 1\n"
      end)
    (Network.outputs net);
  pr ".end\n";
  Buffer.contents buf

let write_file ?model path net =
  let oc = open_out path in
  output_string oc (to_string ?model net);
  close_out oc
