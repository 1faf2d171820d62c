(* Dense truth tables for small variable counts (n <= 24): index i encodes
   the assignment whose bit v is (i lsr v) land 1. Used by tests, the
   Quine-McCluskey prime generator, and exhaustive verification. *)

type t = { n : int; table : Bytes.t }

let max_vars = 24

let create n =
  if n < 0 || n > max_vars then invalid_arg "Truth.create: unsupported arity";
  { n; table = Bytes.make (1 lsl n) '\000' }

let num_vars t = t.n
let size t = 1 lsl t.n

let get t i = Bytes.get t.table i <> '\000'
let set t i v = Bytes.set t.table i (if v then '\001' else '\000')

let assignment_of_index n i = Array.init n (fun v -> i lsr v land 1 = 1)

let init n f =
  let t = create n in
  for i = 0 to size t - 1 do
    set t i (f (assignment_of_index n i))
  done;
  t

let of_cover cover =
  init (Cover.num_vars cover) (fun a -> Cover.eval cover a)

let equal a b = a.n = b.n && Bytes.equal a.table b.table

let lnot a = init a.n (fun _ -> false) |> fun t ->
  for i = 0 to size t - 1 do
    set t i (not (get a i))
  done;
  t

let minterms t =
  let acc = ref [] in
  for i = size t - 1 downto 0 do
    if get t i then acc := i :: !acc
  done;
  !acc

(* A naive exact cover: one cube per minterm. Useful as a seed for
   iterated consensus or minimization. *)
let cover_of_minterms n ms =
  let cube_of_minterm i =
    Cube.make n (List.init n (fun v -> (v, i lsr v land 1 = 1)))
  in
  Cover.of_cubes n (List.map cube_of_minterm ms)

let to_cover t = cover_of_minterms t.n (minterms t)
