(* Bit-parallel zero-delay logic simulation: 62 patterns per native int
   word, evaluated over a network's SOP node functions.

   [prepare] compiles the network once into flat int arrays, so a word
   evaluation is three nested index loops with no per-gate allocation:
   node [i] (signal [nodes.(i)]) owns cubes [cube_start.(i)] ..
   [cube_start.(i+1) - 1]; cube [k] owns literals [lit_start.(k)] ..
   [lit_start.(k+1) - 1]; a literal is [fanin_signal lsl 1 lor phase]. *)

type t = {
  num_signals : int;
  inputs : Network.signal array;
  nodes : Network.signal array;
  cube_start : int array;
  lit_start : int array;
  lits : int array;
}

let prepare net =
  let nodes =
    Array.of_seq
      (Seq.filter
         (fun s -> not (Network.is_input net s))
         (Array.to_seq (Network.topo_order net)))
  in
  let covers = Array.map (fun s -> Network.func net s) nodes in
  let num_cubes = Array.fold_left (fun a f -> a + Logic2.Cover.num_cubes f) 0 covers in
  let num_lits = Array.fold_left (fun a f -> a + Logic2.Cover.num_literals f) 0 covers in
  let cube_start = Array.make (Array.length nodes + 1) 0 in
  let lit_start = Array.make (num_cubes + 1) 0 in
  let lits = Array.make num_lits 0 in
  let k = ref 0 and j = ref 0 in
  Array.iteri
    (fun i s ->
      let fanins = Network.fanins net s in
      cube_start.(i) <- !k;
      List.iter
        (fun c ->
          lit_start.(!k) <- !j;
          incr k;
          List.iter
            (fun (v, ph) ->
              lits.(!j) <- (fanins.(v) lsl 1) lor Bool.to_int ph;
              incr j)
            (Logic2.Cube.literals c))
        (Logic2.Cover.cubes covers.(i)))
    nodes;
  cube_start.(Array.length nodes) <- !k;
  lit_start.(num_cubes) <- !j;
  {
    num_signals = Network.num_signals net;
    inputs = Network.inputs net;
    nodes;
    cube_start;
    lit_start;
    lits;
  }

let of_mapped circuit = prepare (Mapped.network circuit)

(* Evaluate every signal into [value]. A cube is the AND of its
   literals; [lnot] of a negative-phase literal comes from xor with
   [phase - 1] (all ones when the phase bit is 0). *)
let eval_into t pi_words value =
  for i = 0 to Array.length t.inputs - 1 do
    value.(t.inputs.(i)) <- pi_words.(i)
  done;
  for i = 0 to Array.length t.nodes - 1 do
    let acc = ref 0 in
    for k = t.cube_start.(i) to t.cube_start.(i + 1) - 1 do
      let cube = ref (-1) in
      for j = t.lit_start.(k) to t.lit_start.(k + 1) - 1 do
        let l = t.lits.(j) in
        cube := !cube land (value.(l lsr 1) lxor ((l land 1) - 1))
      done;
      acc := !acc lor !cube
    done;
    value.(t.nodes.(i)) <- !acc
  done

(* [pi_words.(i)] carries the i-th primary input's values, one pattern
   per bit. *)
let eval_word t pi_words =
  if Array.length pi_words <> Array.length t.inputs then
    invalid_arg "Bitsim.eval_word: wrong number of input words";
  let value = Array.make t.num_signals 0 in
  eval_into t pi_words value;
  value

let fill_pi_words words rng =
  for i = 0 to Array.length words - 1 do
    (* 62 random bits, keeping the sign bit clear. *)
    let a = Util.Rng.int rng (1 lsl 31) and b = Util.Rng.int rng (1 lsl 31) in
    words.(i) <- (a lsl 31) lor b
  done

let random_pi_words t rng =
  let words = Array.make (Array.length t.inputs) 0 in
  fill_pi_words words rng;
  words

(* SWAR: sum bits in 2-, 4- then 8-bit fields, then add the bytes up
   into the top byte with one multiply. Every byte sum stays below 64,
   so no field carries into the next and the wrap of the 63-bit
   multiply drops nothing. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Per-signal toggle counts between consecutive randomly-drawn pattern
   words, for switching-activity estimation. [rounds] words are applied;
   each after the first contributes 61 within-word pairs plus one seam
   pair with the previous word. *)
let toggle_counts t rng ~rounds =
  let n = t.num_signals in
  let toggles = Array.make n 0 in
  let words = Array.make (Array.length t.inputs) 0 in
  let cur = ref (Array.make n 0) and last = ref (Array.make n 0) in
  for round = 1 to rounds do
    fill_pi_words words rng;
    eval_into t words !cur;
    if round > 1 then begin
      let value = !cur and prev = !last in
      (* Pairs within the word: bit b vs bit b+1 (61 pairs over 62 bits),
         plus the seam between the previous word's top bit and this one's
         bottom bit. *)
      for s = 0 to n - 1 do
        let v = value.(s) in
        let within = (v lxor (v lsr 1)) land ((1 lsl 61) - 1) in
        let seam = (v lxor (prev.(s) lsr 61)) land 1 in
        toggles.(s) <- toggles.(s) + popcount within + seam
      done
    end;
    let swap = !last in
    last := !cur;
    cur := swap
  done;
  let pairs = max 1 ((rounds - 1) * 62) in
  (toggles, pairs)

(* Activity = toggle probability per signal. *)
let activities t rng ~rounds =
  let toggles, pairs = toggle_counts t rng ~rounds in
  Array.map (fun c -> float_of_int c /. float_of_int pairs) toggles
