(* Non-negative reals with an extended binary exponent, value = m * 2^e2
   with m in [1,2) (or m = 0). IEEE doubles top out near 1.8e308 = 2^1024,
   far below the 2^882-scale pattern counts of wide circuits. *)

type t = { m : float; e2 : int }

let zero = { m = 0.; e2 = 0 }
let is_zero t = t.m = 0.

let normalize m e2 =
  if m = 0. then zero
  else begin
    let frac, ex = Float.frexp m in
    (* frexp yields frac in [0.5,1); shift to [1,2). *)
    { m = frac *. 2.; e2 = e2 + ex - 1 }
  end

let of_float f =
  if f < 0. then invalid_arg "Extfloat.of_float: negative";
  normalize f 0

let one = of_float 1.
let pow2 k = { m = 1.; e2 = k }

let mul_pow2 t k = if is_zero t then zero else { t with e2 = t.e2 + k }

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else begin
    (* Align to the larger exponent; beyond ~64 bits the smaller term is
       below representable precision. *)
    let hi, lo = if a.e2 >= b.e2 then (a, b) else (b, a) in
    let shift = hi.e2 - lo.e2 in
    if shift > 128 then hi
    else normalize (hi.m +. Float.ldexp lo.m (-shift)) hi.e2
  end

let mul a b =
  if is_zero a || is_zero b then zero else normalize (a.m *. b.m) (a.e2 + b.e2)

let div a b =
  if is_zero b then invalid_arg "Extfloat.div: division by zero"
  else if is_zero a then zero
  else normalize (a.m /. b.m) (a.e2 - b.e2)

let compare a b =
  match (is_zero a, is_zero b) with
  | true, true -> 0
  | true, false -> -1
  | false, true -> 1
  | false, false ->
    if a.e2 <> b.e2 then Stdlib.compare a.e2 b.e2 else Stdlib.compare a.m b.m

let equal a b = compare a b = 0
let lt a b = compare a b < 0

let to_float t = Float.ldexp t.m t.e2

let log2 t =
  if is_zero t then neg_infinity else Float.log2 t.m +. float_of_int t.e2

let log10 t = log2 t *. Float.log10 2.

(* Scientific-notation string, e.g. "8.0e66", robust to huge exponents. *)
let to_string t =
  if is_zero t then "0"
  else begin
    let l10 = log10 t in
    let e10 = int_of_float (Float.floor l10) in
    let mantissa = Float.pow 10. (l10 -. float_of_int e10) in
    (* Guard against round-off pushing the mantissa to 10.0. *)
    let mantissa, e10 =
      if mantissa >= 9.95 then (1.0, e10 + 1) else (mantissa, e10)
    in
    if e10 >= -3 && e10 <= 6 then Printf.sprintf "%g" (to_float t)
    else Printf.sprintf "%.1fe%d" mantissa e10
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
