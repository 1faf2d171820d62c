(* Sum-of-products covers: a list of cubes over a common variable set.
   The constant-0 function is the empty cover; constant 1 contains the
   universe cube. Algorithms are the classical unate-recursive ones
   (Brayton et al., "Logic Minimization Algorithms for VLSI Synthesis"). *)

type t = { n : int; cubes : Cube.t list }

let zero n = { n; cubes = [] }
let one n = { n; cubes = [ Cube.universe n ] }

let of_cubes n cubes =
  List.iter
    (fun c ->
      if Cube.num_vars c <> n then invalid_arg "Cover.of_cubes: arity mismatch")
    cubes;
  { n; cubes }

let cubes t = t.cubes
let num_vars t = t.n
let num_cubes t = List.length t.cubes
let num_literals t =
  List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 t.cubes

let is_zero t = t.cubes = []
let has_universe t = List.exists Cube.is_universe t.cubes

let eval t assignment = List.exists (fun c -> Cube.eval c assignment) t.cubes

let union a b =
  if a.n <> b.n then invalid_arg "Cover.union: arity mismatch";
  { n = a.n; cubes = a.cubes @ b.cubes }

let map_cubes f t = { t with cubes = List.filter_map f t.cubes }

(* Cofactor of a cover w.r.t. a single literal. *)
let cofactor t v ph = map_cubes (fun c -> Cube.cofactor c v ph) t

(* Cofactor of a cover w.r.t. a cube: drop cubes that conflict with it and
   strip the cube's literals from the rest. *)
let cofactor_cube t q =
  let cof c =
    if Cube.disjoint c q then None
    else begin
      let c' = ref c in
      List.iter (fun (v, _) -> c' := Cube.remove_var !c' v) (Cube.literals q);
      Some !c'
    end
  in
  map_cubes cof t

(* Remove cubes covered by another single cube of the list. *)
let single_cube_containment t =
  let cubes = List.sort_uniq (fun a b -> Cube.compare_by_literals a b) t.cubes in
  let keep c =
    not
      (List.exists (fun d -> (not (Cube.equal c d)) && Cube.covers d c) cubes)
  in
  { t with cubes = List.filter keep cubes }

(* Literal occurrence counts per variable, for binate-variable selection. *)
let occurrence_counts t =
  let pos = Array.make t.n 0 and neg = Array.make t.n 0 in
  let visit c =
    List.iter
      (fun (v, ph) -> if ph then pos.(v) <- pos.(v) + 1 else neg.(v) <- neg.(v) + 1)
      (Cube.literals c)
  in
  List.iter visit t.cubes;
  (pos, neg)

(* The most binate variable (appearing in both polarities), maximizing the
   smaller occurrence count then the total. None if the cover is unate. *)
let most_binate_var t =
  let pos, neg = occurrence_counts t in
  let best = ref None in
  for v = 0 to t.n - 1 do
    if pos.(v) > 0 && neg.(v) > 0 then begin
      let key = (min pos.(v) neg.(v), pos.(v) + neg.(v)) in
      match !best with
      | Some (_, k) when k >= key -> ()
      | _ -> best := Some (v, key)
    end
  done;
  Option.map fst !best

(* Unate covers are tautologies iff they contain the universe cube; the
   general case splits on the most binate variable. *)
let rec is_tautology t =
  if has_universe t then true
  else if is_zero t then false
  else
    match most_binate_var t with
    | None -> false
    | Some v -> is_tautology (cofactor t v true) && is_tautology (cofactor t v false)

(* cube ⊆ cover, possibly helped by a don't-care cover. *)
let covers_cube ?dc t c =
  let g = match dc with None -> t | Some d -> union t d in
  is_tautology (cofactor_cube g c)

let covers_cover ?dc t other = List.for_all (covers_cube ?dc t) other.cubes

let equivalent a b = covers_cover a b && covers_cover b a

(* Complement by Shannon expansion on the most binate variable, with
   single-cube containment to keep intermediate sizes in check. *)
let rec complement t =
  if is_zero t then one t.n
  else if has_universe t then zero t.n
  else
    match most_binate_var t with
    | Some v ->
      let c1 = complement (cofactor t v true)
      and c0 = complement (cofactor t v false) in
      let lit ph c = Cube.with_literal c v ph in
      let hi = map_cubes (lit true) c1 and lo = map_cubes (lit false) c0 in
      single_cube_containment (union hi lo)
    | None ->
      (* Unate cover: complement the single-variable factor recursively by
         splitting on any variable that occurs. *)
      let v =
        let pos, neg = occurrence_counts t in
        let rec find i =
          if i >= t.n then None
          else if pos.(i) > 0 || neg.(i) > 0 then Some i
          else find (i + 1)
        in
        find 0
      in
      (match v with
      | None -> assert false (* no literals and no universe cube: impossible *)
      | Some v ->
        let c1 = complement (cofactor t v true)
        and c0 = complement (cofactor t v false) in
        let lit ph c = Cube.with_literal c v ph in
        let hi = map_cubes (lit true) c1 and lo = map_cubes (lit false) c0 in
        single_cube_containment (union hi lo))

let product a b =
  if a.n <> b.n then invalid_arg "Cover.product: arity mismatch";
  let cubes =
    List.concat_map
      (fun ca -> List.filter_map (fun cb -> Cube.intersect ca cb) b.cubes)
      a.cubes
  in
  single_cube_containment { n = a.n; cubes }

let intersects a b =
  List.exists
    (fun ca -> List.exists (fun cb -> not (Cube.disjoint ca cb)) b.cubes)
    a.cubes

(* Remove redundant cubes: c is redundant if the rest of the cover (plus
   don't cares) covers it. Processing larger cubes first keeps primes. *)
let irredundant ?dc t =
  let cubes =
    List.sort (fun a b -> Cube.compare_by_literals b a) t.cubes
  in
  let rec loop kept = function
    | [] -> kept
    | c :: rest ->
      let others = { t with cubes = List.rev_append kept rest } in
      if covers_cube ?dc others c then loop kept rest else loop (c :: kept) rest
  in
  { t with cubes = loop [] cubes }

(* Expand each cube against an off-set cover: greedily drop literals as
   long as the expanded cube stays disjoint from every off-set cube. *)
let expand_against t ~offset =
  let expand c =
    let try_drop c (v, _ph) =
      let c' = Cube.remove_var c v in
      let hits_offset = List.exists (fun r -> not (Cube.disjoint c' r)) offset.cubes in
      if hits_offset then c else c'
    in
    List.fold_left try_drop c (Cube.literals c)
  in
  single_cube_containment { t with cubes = List.map expand t.cubes }

(* Espresso-lite: EXPAND against the complement, then IRREDUNDANT. [dc]
   enlarges the expansion room and the redundancy test. *)
let minimize ?dc t =
  let care_complement =
    match dc with
    | None -> complement t
    | Some d -> complement (union t d)
  in
  let expanded = expand_against t ~offset:care_complement in
  irredundant ?dc expanded

let support t =
  List.fold_left (fun acc c -> Bits.union acc (Cube.support c)) (Bits.create t.n) t.cubes

let pp ?names fmt t =
  if is_zero t then Format.fprintf fmt "0"
  else
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.fprintf fmt " + ")
      (Cube.pp ?names) fmt t.cubes

let to_string ?names t = Format.asprintf "%a" (pp ?names) t
