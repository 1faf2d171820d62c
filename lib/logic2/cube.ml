(* A cube (product term) over variables 0..n-1. Each variable appears
   positively, negatively, or not at all; [pos] and [neg] are disjoint by
   construction. The empty (contradictory) cube is not representable:
   operations that would produce it return [None]. *)

type polarity = Pos | Neg | Absent

type t = { n : int; pos : Bits.t; neg : Bits.t }

let universe n = { n; pos = Bits.create n; neg = Bits.create n }

let num_vars t = t.n

let make n lits =
  let pos = Bits.create n and neg = Bits.create n in
  let add (v, ph) =
    if v < 0 || v >= n then invalid_arg "Cube.make: variable out of range";
    match ph with
    | true ->
      if Bits.get neg v then invalid_arg "Cube.make: contradictory literal";
      Bits.set pos v
    | false ->
      if Bits.get pos v then invalid_arg "Cube.make: contradictory literal";
      Bits.set neg v
  in
  List.iter add lits;
  { n; pos; neg }

let polarity t v =
  if Bits.get t.pos v then Pos else if Bits.get t.neg v then Neg else Absent

let literals t =
  let lp = Bits.fold (fun v acc -> (v, true) :: acc) t.pos [] in
  Bits.fold (fun v acc -> (v, false) :: acc) t.neg lp
  |> List.sort compare

let num_literals t = Bits.count t.pos + Bits.count t.neg

let is_universe t = num_literals t = 0

let equal a b = a.n = b.n && Bits.equal a.pos b.pos && Bits.equal a.neg b.neg

let hash t = (Bits.hash t.pos * 31) lxor Bits.hash t.neg

let compare_by_literals a b =
  let c = compare (num_literals a) (num_literals b) in
  if c <> 0 then c else compare (literals a) (literals b)

(* c1 covers c2: every literal of c1 appears in c2 (c1 ⊇ c2 as sets of
   minterms iff c1's literals ⊆ c2's literals). *)
let covers c1 c2 = Bits.subset c1.pos c2.pos && Bits.subset c1.neg c2.neg

let intersect a b =
  if a.n <> b.n then invalid_arg "Cube.intersect: arity mismatch";
  if Bits.disjoint a.pos b.neg && Bits.disjoint a.neg b.pos then
    Some { n = a.n; pos = Bits.union a.pos b.pos; neg = Bits.union a.neg b.neg }
  else None

let disjoint a b = Option.is_none (intersect a b)

(* Number of variables in which a and b have opposite polarities. *)
let distance a b =
  Bits.count (Bits.inter a.pos b.neg) + Bits.count (Bits.inter a.neg b.pos)

(* Cofactor w.r.t. literal (v, ph): None if the cube requires v = not ph,
   otherwise the cube with v's literal removed. *)
let cofactor t v ph =
  match polarity t v, ph with
  | Pos, false | Neg, true -> None
  | Absent, _ -> Some t
  | Pos, true ->
    let pos = Bits.copy t.pos in
    Bits.clear pos v;
    Some { t with pos }
  | Neg, false ->
    let neg = Bits.copy t.neg in
    Bits.clear neg v;
    Some { t with neg }

let with_literal t v ph =
  match polarity t v, ph with
  | Pos, false | Neg, true -> None
  | Pos, true | Neg, false -> Some t
  | Absent, true ->
    let pos = Bits.copy t.pos in
    Bits.set pos v;
    Some { t with pos }
  | Absent, false ->
    let neg = Bits.copy t.neg in
    Bits.set neg v;
    Some { t with neg }

let remove_var t v =
  match polarity t v with
  | Absent -> t
  | Pos ->
    let pos = Bits.copy t.pos in
    Bits.clear pos v;
    { t with pos }
  | Neg ->
    let neg = Bits.copy t.neg in
    Bits.clear neg v;
    { t with neg }

(* Consensus on variable v: if a has v and b has !v (or vice versa) and
   they conflict in no other variable, the consensus drops v. *)
let consensus a b =
  if distance a b <> 1 then None
  else
    let merged =
      { n = a.n; pos = Bits.union a.pos b.pos; neg = Bits.union a.neg b.neg }
    in
    let conflict = Bits.inter merged.pos merged.neg in
    match Bits.first_set conflict with
    | None -> assert false
    | Some v ->
      let pos = Bits.copy merged.pos and neg = Bits.copy merged.neg in
      Bits.clear pos v;
      Bits.clear neg v;
      Some { n = a.n; pos; neg }

let eval t assignment =
  let ok = ref true in
  Bits.iter (fun v -> if not assignment.(v) then ok := false) t.pos;
  Bits.iter (fun v -> if assignment.(v) then ok := false) t.neg;
  !ok

let support t = Bits.union t.pos t.neg

(* log2 of the number of minterms: 2^(n - #literals). *)
let pp ?names fmt t =
  if is_universe t then Format.fprintf fmt "1"
  else begin
    let name v =
      match names with Some f -> f v | None -> Printf.sprintf "x%d" v
    in
    let first = ref true in
    let lit v ph =
      if !first then first := false else Format.fprintf fmt "*";
      Format.fprintf fmt "%s%s" (if ph then "" else "!") (name v)
    in
    for v = 0 to t.n - 1 do
      match polarity t v with
      | Pos -> lit v true
      | Neg -> lit v false
      | Absent -> ()
    done
  end

let to_string ?names t = Format.asprintf "%a" (pp ?names) t
