(* Tests for Boolean networks, BLIF I/O, network optimization, the
   technology mapper and the cell library. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let vars2 = [| "x"; "y" |]
let and2 = Logic2.Sop.parse ~vars:vars2 "x*y"
let or2 = Logic2.Sop.parse ~vars:vars2 "x + y"
let xor2 = Logic2.Sop.parse ~vars:vars2 "x*!y + !x*y"
let inv1 = Logic2.Sop.parse ~vars:[| "x" |] "!x"

(* A small reference network, f = (a&b) ^ !(c|d), g = a&b, with its
   inputs declared in [order]; input "a" is called [a_name]. *)
let build_reordered ?(a_name = "a") order =
  let net = Network.create () in
  let pis =
    List.map (fun n -> (n, Network.add_input net (if n = "a" then a_name else n))) order
  in
  let pi n = List.assoc n pis in
  let ab = Network.add_node net "ab" ~fanins:[| pi "a"; pi "b" |] ~func:and2 in
  let cd = Network.add_node net "cd" ~fanins:[| pi "c"; pi "d" |] ~func:or2 in
  let ncd = Network.add_node net "ncd" ~fanins:[| cd |] ~func:inv1 in
  let f = Network.add_node net "f" ~fanins:[| ab; ncd |] ~func:xor2 in
  Network.mark_output net ~name:"f" f;
  Network.mark_output net ~name:"g" ab;
  net

let build_reference () = build_reordered [ "a"; "b"; "c"; "d" ]

let reference_f a b c d = (a && b) <> not (c || d)
let reference_g a b = a && b

let all4 = List.init 16 (fun i -> Array.init 4 (fun v -> i lsr v land 1 = 1))

let test_network_eval () =
  let net = build_reference () in
  check_int "nodes" 4 (Network.num_nodes net);
  List.iter
    (fun x ->
      let outs = Network.eval_outputs net x in
      check "f" true (outs.(0) = reference_f x.(0) x.(1) x.(2) x.(3));
      check "g" true (outs.(1) = reference_g x.(0) x.(1)))
    all4

let test_network_bdds () =
  let net = build_reference () in
  let man, f = Network.to_bdds net in
  let outs = Network.outputs net in
  List.iter
    (fun x ->
      Array.iter
        (fun (name, s) ->
          let expected =
            if name = "f" then reference_f x.(0) x.(1) x.(2) x.(3)
            else reference_g x.(0) x.(1)
          in
          check "bdd vs eval" true (Bdd.eval man f.(s) x = expected))
        outs)
    all4

let test_network_cone () =
  let net = build_reference () in
  let g = Option.get (Network.find net "ab") in
  let cone = Network.cone net [ g ] in
  check "a in cone" true cone.(Option.get (Network.find net "a"));
  check "c not in cone" false cone.(Option.get (Network.find net "c"))

let test_extract_cone () =
  let net = build_reference () in
  let sub = Network.extract_cone net [ "g" ] in
  check_int "sub nodes" 1 (Network.num_nodes sub);
  check_int "sub inputs" 2 (Array.length (Network.inputs sub))

let test_equivalence () =
  let net = build_reference () in
  check "self equivalent" true (Network.equivalent net (build_reference ()));
  (* A mutated version: f uses OR instead of XOR. *)
  let net2 = build_reference () in
  let h = Network.add_node net2 "h" ~fanins:[| 0; 1 |] ~func:or2 in
  let net3 = Network.create () in
  ignore h;
  ignore net2;
  let a = Network.add_input net3 "a" in
  let b = Network.add_input net3 "b" in
  let c = Network.add_input net3 "c" in
  let d = Network.add_input net3 "d" in
  let ab = Network.add_node net3 "ab" ~fanins:[| a; b |] ~func:and2 in
  let cd = Network.add_node net3 "cd" ~fanins:[| c; d |] ~func:or2 in
  let ncd = Network.add_node net3 "ncd" ~fanins:[| cd |] ~func:inv1 in
  let f = Network.add_node net3 "f" ~fanins:[| ab; ncd |] ~func:or2 in
  Network.mark_output net3 ~name:"f" f;
  Network.mark_output net3 ~name:"g" ab;
  check "mutant differs" false (Network.equivalent net net3)

(* Inputs match by name, not by position: reversing the declaration
   order keeps the networks equivalent (matching by position would
   compare (d&c)^!(b|a) against (a&b)^!(c|d)), and renaming one input
   breaks it. *)
let test_equivalence_by_input_name () =
  let net = build_reference () in
  let reversed = build_reordered [ "d"; "c"; "b"; "a" ] in
  check "reordered inputs equivalent" true (Network.equivalent net reversed);
  check "symmetric" true (Network.equivalent reversed net);
  let renamed = build_reordered ~a_name:"z" [ "a"; "b"; "c"; "d" ] in
  check "renamed input differs" false (Network.equivalent net renamed)

(* Elaborating again with [reuse] fed the earlier handles returns those
   handles and adds no node; a handle [reuse] supplies is what the
   gate's fanouts are built from. *)
let test_elaborate_reuse () =
  let net = build_reference () in
  let man, f = Network.to_bdds net in
  let nodes = Bdd.num_nodes man in
  let asked = ref 0 in
  let reuse s =
    incr asked;
    Some f.(s)
  in
  let f' = Network.elaborate ~reuse man net in
  check "handles physically equal" true (Array.for_all2 ( == ) f f');
  check_int "no node added" nodes (Bdd.num_nodes man);
  check_int "asked once per gate" (Network.num_nodes net) !asked;
  let cd = Option.get (Network.find net "cd") in
  let ncd = Option.get (Network.find net "ncd") in
  let g =
    Network.elaborate ~reuse:(fun s -> if s = cd then Some Bdd.btrue else None) man net
  in
  check "reused handle feeds fanouts" true (g.(ncd) = Bdd.bfalse)

let test_blif_roundtrip () =
  let net = build_reference () in
  let text = Blif.to_string ~model:"ref" net in
  let net' = Blif.parse text in
  check "roundtrip equivalent" true (Network.equivalent net net');
  (* Suite circuit roundtrip. *)
  let big = Suite.load "i1" in
  let big' = Blif.parse (Blif.to_string big) in
  check "suite roundtrip" true (Network.equivalent big big')

let test_blif_offset_rows () =
  (* A node given by its off-set (output value 0 rows). *)
  let text =
    ".model t\n.inputs a b\n.outputs z\n.names a b z\n11 0\n.end\n"
  in
  let net = Blif.parse text in
  (* z = !(a&b) *)
  let cases = [ (false, false, true); (true, false, true); (true, true, false) ] in
  List.iter
    (fun (a, b, expected) ->
      check "offset rows" true ((Network.eval_outputs net [| a; b |]).(0) = expected))
    cases

let test_blif_errors () =
  let bad = ".model t\n.inputs a\n.outputs z\n.latch a z\n.end\n" in
  check "latch rejected" true
    (try
       ignore (Blif.parse bad);
       false
     with Blif.Parse_error _ -> true)

(* ---------- Netopt ---------- *)

let suite_names = [ "i1"; "cmb"; "x2"; "cu"; "frg1"; "C432"; "C880" ]

let test_netopt_equivalence () =
  List.iter
    (fun name ->
      let net = Suite.load name in
      let opt = Netopt.optimize net in
      check (name ^ " optimize preserves") true (Network.equivalent net opt);
      let col = Netopt.optimize ~collapse:true net in
      check (name ^ " collapse preserves") true (Network.equivalent net col))
    suite_names

let test_rebalance_xor () =
  (* A 9-input xor chain becomes a log-depth tree with the same function. *)
  let net = Network.create () in
  let pis = Array.init 9 (fun i -> Network.add_input net (Printf.sprintf "x%d" i)) in
  let acc = ref pis.(0) in
  for i = 1 to 8 do
    acc := Network.add_node net (Printf.sprintf "s%d" i) ~fanins:[| !acc; pis.(i) |] ~func:xor2
  done;
  Network.mark_output net ~name:"parity" !acc;
  let opt = Netopt.rebalance_xor net in
  check "parity preserved" true (Network.equivalent net opt);
  let depth n =
    let d = Array.make (Network.num_signals n) 0 in
    Array.iter
      (fun s ->
        match Network.node_of n s with
        | None -> ()
        | Some nd ->
          d.(s) <- 1 + Array.fold_left (fun acc f -> max acc d.(f)) 0 nd.Network.fanins)
      (Network.topo_order n);
    Array.fold_left max 0 d
  in
  check_int "chain depth" 8 (depth net);
  check "tree depth is logarithmic" true (depth opt <= 4)

let test_collapse_chains_depth () =
  (* A long mixed and/xor chain collapses to logarithmic depth. *)
  let net = Network.create () in
  let pis = Array.init 17 (fun i -> Network.add_input net (Printf.sprintf "x%d" i)) in
  let acc = ref pis.(0) in
  for i = 1 to 16 do
    let func = if i mod 3 = 0 then and2 else xor2 in
    acc := Network.add_node net (Printf.sprintf "s%d" i) ~fanins:[| !acc; pis.(i) |] ~func
  done;
  Network.mark_output net ~name:"out" !acc;
  let opt = Netopt.collapse_chains net in
  check "collapse preserves" true (Network.equivalent net opt);
  let mc = Mapper.map net and mo = Mapper.map opt in
  let d = Sta.delta (Sta.analyze mc) and d' = Sta.delta (Sta.analyze mo) in
  check "collapsed is shallower" true (d' < 0.75 *. d)

(* ---------- Mapper / cells ---------- *)

let test_cell_library () =
  List.iter
    (fun cell ->
      check_int
        (cell.Cell.cname ^ " arity matches logic")
        cell.Cell.arity
        (Logic2.Cover.num_vars cell.Cell.logic);
      check (cell.Cell.cname ^ " positive delay") true (cell.Cell.delay > 0.);
      check (cell.Cell.cname ^ " positive area") true (cell.Cell.area > 0.))
    Cell.all;
  check "find" true (Cell.find "ND2" = Some Cell.nd2);
  check "find missing" true (Cell.find "BOGUS" = None)

let test_mapper_equivalence () =
  List.iter
    (fun name ->
      let net = Suite.load name in
      let mapped = Mapper.map net in
      check (name ^ " mapping preserves function") true
        (Network.equivalent net (Mapped.network mapped));
      let chained = Mapper.map ~style:Mapper.Chain net in
      check (name ^ " chain mapping preserves") true
        (Network.equivalent net (Mapped.network chained)))
    suite_names

let test_mapper_cells_legal () =
  let net = Suite.load "C432" in
  let mc = Mapper.map net in
  let mnet = Mapped.network mc in
  Array.iter
    (fun s ->
      match (Network.node_of mnet s, Mapped.cell_of mc s) with
      | None, None -> ()
      | Some nd, Some cell ->
        check_int "gate arity" cell.Cell.arity (Array.length nd.Network.fanins)
      | Some _, None -> Alcotest.fail "gate without cell"
      | None, Some _ -> Alcotest.fail "cell on primary input")
    (Network.topo_order mnet)

let test_mapper_direct_match () =
  (* A bare xor node must map to the single EO cell. *)
  let net = Network.create () in
  let a = Network.add_input net "a" in
  let b = Network.add_input net "b" in
  let x = Network.add_node net "x" ~fanins:[| a; b |] ~func:xor2 in
  Network.mark_output net ~name:"x" x;
  let mc = Mapper.map net in
  check_int "single gate" 1 (Mapped.gate_count mc)

let test_mapper_balanced_depth () =
  (* A 16-literal product: balanced mapping is at most 2 AND levels. *)
  let net = Network.create () in
  let pis = Array.init 16 (fun i -> Network.add_input net (Printf.sprintf "x%d" i)) in
  let cube = Logic2.Cube.make 16 (List.init 16 (fun v -> (v, true))) in
  let func = Logic2.Cover.of_cubes 16 [ cube ] in
  let s = Network.add_node net "p" ~fanins:pis ~func in
  Network.mark_output net ~name:"p" s;
  let bal = Mapper.map net in
  let chain = Mapper.map ~style:Mapper.Chain net in
  let d_bal = Sta.delta (Sta.analyze ~model:Sta.Unit bal) in
  let d_chain = Sta.delta (Sta.analyze ~model:Sta.Unit chain) in
  check "balanced 2 levels" true (d_bal <= 2.01);
  check "chain 15 levels" true (d_chain >= 14.99)

let () =
  Alcotest.run "network"
    [
      ( "network",
        [
          Alcotest.test_case "eval" `Quick test_network_eval;
          Alcotest.test_case "bdds" `Quick test_network_bdds;
          Alcotest.test_case "cone" `Quick test_network_cone;
          Alcotest.test_case "extract_cone" `Quick test_extract_cone;
          Alcotest.test_case "equivalence" `Quick test_equivalence;
          Alcotest.test_case "equivalence by input name" `Quick
            test_equivalence_by_input_name;
          Alcotest.test_case "elaborate reuse" `Quick test_elaborate_reuse;
        ] );
      ( "blif",
        [
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "offset rows" `Quick test_blif_offset_rows;
          Alcotest.test_case "errors" `Quick test_blif_errors;
        ] );
      ( "netopt",
        [
          Alcotest.test_case "optimize equivalence" `Slow test_netopt_equivalence;
          Alcotest.test_case "xor rebalance" `Quick test_rebalance_xor;
          Alcotest.test_case "chain collapse" `Quick test_collapse_chains_depth;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "cell library" `Quick test_cell_library;
          Alcotest.test_case "mapping equivalence" `Slow test_mapper_equivalence;
          Alcotest.test_case "cells legal" `Quick test_mapper_cells_legal;
          Alcotest.test_case "direct match" `Quick test_mapper_direct_match;
          Alcotest.test_case "balanced depth" `Quick test_mapper_balanced_depth;
        ] );
    ]
