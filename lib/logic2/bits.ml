(* Fixed-width bitsets backed by int arrays (62 usable bits per word
   would complicate indexing; we use the full 63-bit native int words). *)

type t = { width : int; words : int array }

let bits_per_word = Sys.int_size (* 63 on 64-bit systems *)

let nwords width =
  if width = 0 then 0 else ((width - 1) / bits_per_word) + 1

let create width =
  if width < 0 then invalid_arg "Bits.create: negative width";
  { width; words = Array.make (nwords width) 0 }

let width t = t.width

let copy t = { t with words = Array.copy t.words }

let check_index t i =
  if i < 0 || i >= t.width then invalid_arg "Bits: index out of bounds"

let get t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) lsr b land 1 = 1

let set t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let assign t i v = if v then set t i else clear t i

(* Mask covering the valid bits of the last word, so bitwise complements
   never leak set bits past [width]. *)
let last_mask t =
  let rem = t.width mod bits_per_word in
  if rem = 0 then -1 else (1 lsl rem) - 1

let check_same_width a b =
  if a.width <> b.width then invalid_arg "Bits: width mismatch"

let map2 f a b =
  check_same_width a b;
  let words = Array.init (Array.length a.words) (fun i -> f a.words.(i) b.words.(i)) in
  { width = a.width; words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let complement a =
  let words = Array.map lnot a.words in
  let n = Array.length words in
  if n > 0 then words.(n - 1) <- words.(n - 1) land last_mask a;
  { width = a.width; words }

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let equal a b = a.width = b.width && Array.for_all2 ( = ) a.words b.words

(* a ⊆ b *)
let subset a b =
  check_same_width a b;
  let n = Array.length a.words in
  let rec loop i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && loop (i + 1)) in
  loop 0

let disjoint a b =
  check_same_width a b;
  let n = Array.length a.words in
  let rec loop i = i >= n || (a.words.(i) land b.words.(i) = 0 && loop (i + 1)) in
  loop 0

let popcount_word w =
  let rec loop w acc = if w = 0 then acc else loop (w land (w - 1)) (acc + 1) in
  loop w 0

let count t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let hash t =
  Array.fold_left (fun acc w -> (acc * 0x01000193) lxor w) t.width t.words

let iter f t =
  for i = 0 to t.width - 1 do
    if get t i then f i
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list width l =
  let t = create width in
  List.iter (fun i -> set t i) l;
  t

let first_set t =
  let n = Array.length t.words in
  let rec loop w =
    if w >= n then None
    else if t.words.(w) = 0 then loop (w + 1)
    else begin
      let word = t.words.(w) in
      let rec bit b = if word lsr b land 1 = 1 then b else bit (b + 1) in
      Some ((w * bits_per_word) + bit 0)
    end
  in
  loop 0

let pp fmt t =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun i ->
      if !first then first := false else Format.fprintf fmt ",";
      Format.fprintf fmt "%d" i)
    t;
  Format.fprintf fmt "}"
