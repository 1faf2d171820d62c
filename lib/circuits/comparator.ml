(* The 2-bit comparator of the paper's Fig. 2(a), gate for gate:

     y = a1·!b1 + (a0 + !b0)·(a1 + !b1)

   y is 1 iff the unsigned value a1a0 is >= b1b0. Under the paper's
   abstract delay units (inverter = 1, two-input gate = 2) its critical
   path delay is 7, the speed-paths run through !b0 and !b1 into the
   (a0+!b0)(a1+!b1) product, and the SPCF at Δ_y = 6.3 is !a1 + !a0·b1. *)

let inv_func = Logic2.Sop.parse ~vars:[| "x" |] "!x"
let or2_func = Logic2.Sop.parse ~vars:[| "x"; "y" |] "x + y"
let and2_func = Logic2.Sop.parse ~vars:[| "x"; "y" |] "x * y"

let network () =
  let net = Network.create () in
  let a0 = Network.add_input net "a0" in
  let a1 = Network.add_input net "a1" in
  let b0 = Network.add_input net "b0" in
  let b1 = Network.add_input net "b1" in
  let nb0 = Network.add_node net "nb0" ~fanins:[| b0 |] ~func:inv_func in
  let nb1 = Network.add_node net "nb1" ~fanins:[| b1 |] ~func:inv_func in
  let or1 = Network.add_node net "or1" ~fanins:[| a0; nb0 |] ~func:or2_func in
  let or2 = Network.add_node net "or2" ~fanins:[| a1; nb1 |] ~func:or2_func in
  let and1 = Network.add_node net "and1" ~fanins:[| or1; or2 |] ~func:and2_func in
  let and2 = Network.add_node net "and2" ~fanins:[| a1; nb1 |] ~func:and2_func in
  let y = Network.add_node net "y" ~fanins:[| and2; and1 |] ~func:or2_func in
  Network.mark_output net ~name:"y" y;
  net

let mapped () = Mapper.map (network ())

(* Reference facts from Sec. 4.2, used by tests and the worked example. *)
let paper_delta = 7.0
let paper_target = 6.3

(* Σ_y(Δ_y) = !a1 + !a0·b1 over inputs (a0, a1, b0, b1). *)
let paper_spcf =
  Logic2.Sop.parse ~vars:[| "a0"; "a1"; "b0"; "b1" |] "!a1 + !a0*b1"
