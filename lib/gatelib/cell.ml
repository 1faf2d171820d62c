(* A combinational standard-cell library modeled on the lsi_10k library
   the paper used: inverters/buffers, NAND/NOR/AND/OR up to 4 inputs,
   XOR/XNOR, AOI/OAI, and a 2-to-1 mux. Areas are in equivalent-gate
   units, delays in ns-like units, input capacitances in unit loads. *)

type t = {
  cname : string;
  arity : int;
  area : float;
  delay : float; (* pin-to-pin, uniform over pins *)
  input_cap : float;
  logic : Logic2.Cover.t; (* over variables 0 .. arity-1 *)
}

let make cname arity area delay input_cap sop =
  let vars = Array.init arity (fun i -> Printf.sprintf "%c" (Char.chr (Char.code 'a' + i))) in
  { cname; arity; area; delay; input_cap; logic = Logic2.Sop.parse ~vars sop }

let inv = make "IV" 1 1.0 0.13 1.0 "!a"
let buf = make "B1" 1 2.0 0.20 1.0 "a"
let nd2 = make "ND2" 2 2.0 0.16 1.0 "!a + !b"
let nd3 = make "ND3" 3 3.0 0.21 1.1 "!a + !b + !c"
let nd4 = make "ND4" 4 4.0 0.27 1.2 "!a + !b + !c + !d"
let nr2 = make "NR2" 2 2.0 0.20 1.0 "!a * !b"
let nr3 = make "NR3" 3 3.0 0.28 1.1 "!a * !b * !c"
let nr4 = make "NR4" 4 4.0 0.36 1.2 "!a * !b * !c * !d"
let an2 = make "AN2" 2 3.0 0.25 1.0 "a * b"
let an3 = make "AN3" 3 4.0 0.30 1.1 "a * b * c"
let an4 = make "AN4" 4 5.0 0.35 1.2 "a * b * c * d"
let or2 = make "OR2" 2 3.0 0.30 1.0 "a + b"
let or3 = make "OR3" 3 4.0 0.38 1.1 "a + b + c"
let or4 = make "OR4" 4 5.0 0.45 1.2 "a + b + c + d"
let eo = make "EO" 2 4.0 0.35 1.3 "a*!b + !a*b"
let en = make "EN" 2 4.0 0.35 1.3 "a*b + !a*!b"
let aoi21 = make "AOI21" 3 3.0 0.22 1.1 "!a*!c + !b*!c"
let aoi22 = make "AOI22" 4 4.0 0.26 1.2 "!a*!c + !a*!d + !b*!c + !b*!d"
let oai21 = make "OAI21" 3 3.0 0.22 1.1 "!c + !a*!b"
let oai22 = make "OAI22" 4 4.0 0.26 1.2 "!a*!b + !c*!d"
let mux21 = make "MUX21" 3 5.0 0.40 1.2 "!c*a + c*b"
(* MUX21 convention: input a is the 0-input, b the 1-input, c the select. *)

let all =
  [
    inv; buf; nd2; nd3; nd4; nr2; nr3; nr4; an2; an3; an4; or2; or3; or4; eo;
    en; aoi21; aoi22; oai21; oai22; mux21;
  ]

let by_name =
  let tbl = Hashtbl.create 32 in
  List.iter (fun c -> Hashtbl.replace tbl c.cname c) all;
  tbl

let find name = Hashtbl.find_opt by_name name

let and_cells = [| an2; an3; an4 |] (* index = arity - 2 *)
let or_cells = [| or2; or3; or4 |]
