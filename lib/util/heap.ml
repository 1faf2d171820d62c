(* Minimal binary min-heap keyed by floats, stable for equal keys
   (FIFO: among equal keys, the earliest-pushed element pops first).
   Stability matters to the event-driven timing simulator: several
   evaluations of one gate can be scheduled for the same instant, and
   the one scheduled last — computed from the freshest input values —
   must take effect last. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable size : int;
  mutable stamp : int;
  dummy : 'a;
}

let create dummy =
  {
    keys = Array.make 16 0.;
    seqs = Array.make 16 0;
    data = Array.make 16 dummy;
    size = 0;
    stamp = 0;
    dummy;
  }

let is_empty h = h.size = 0
let size h = h.size

let grow h =
  let cap = Array.length h.keys * 2 in
  let keys = Array.make cap 0. and seqs = Array.make cap 0 and data = Array.make cap h.dummy in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.data 0 data 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.data <- data

let less h i j =
  h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.seqs.(i) < h.seqs.(j))

let swap h i j =
  let k = h.keys.(i) and q = h.seqs.(i) and d = h.data.(i) in
  h.keys.(i) <- h.keys.(j);
  h.seqs.(i) <- h.seqs.(j);
  h.data.(i) <- h.data.(j);
  h.keys.(j) <- k;
  h.seqs.(j) <- q;
  h.data.(j) <- d

let push h key value =
  if h.size >= Array.length h.keys then grow h;
  h.keys.(h.size) <- key;
  h.seqs.(h.size) <- h.stamp;
  h.data.(h.size) <- value;
  h.stamp <- h.stamp + 1;
  h.size <- h.size + 1;
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less h i parent then begin
        swap h parent i;
        up parent
      end
    end
  in
  up (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let key = h.keys.(0) and value = h.data.(0) in
    h.size <- h.size - 1;
    h.keys.(0) <- h.keys.(h.size);
    h.seqs.(0) <- h.seqs.(h.size);
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- h.dummy;
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < h.size && less h l !smallest then smallest := l;
      if r < h.size && less h r !smallest then smallest := r;
      if !smallest <> i then begin
        swap h i !smallest;
        down !smallest
      end
    in
    down 0;
    Some (key, value)
  end
