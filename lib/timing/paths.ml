(* Near-critical structural path enumeration.

   A structural (topological) path is a chain of signals from a primary
   input to a primary output; its length is the sum of the driving-gate
   delays along it. The enumerator lists, per primary output and in a
   deterministic order, every path whose length exceeds
   (1 - band) * Delta — the near-critical band that functional
   sensitization analysis then classifies path by path.

   The walk is a backward DFS from each output. At signal [s] with
   [suffix] delay already accumulated on the partial path above it, the
   subtree can contribute a qualifying path iff
   arrival(s) + suffix > target + eps: [arrival s] is the exact maximum
   prefix length ending at [s], so the bound is admissible (no
   qualifying path is missed) and exact (every surviving leaf emits a
   path above the target — the DFS only descends into fanins that still
   satisfy the bound, and the maximum is attained by at least one of
   them). Path counts are exponential in the worst case, so enumeration
   stops — marked, never silently — at [max_paths]. *)

type path = {
  output : string;  (** primary-output name the path terminates in *)
  signals : Network.signal array;  (** primary input first, output last *)
  length : float;  (** sum of gate delays along the path *)
}

type t = {
  band : float;
  target : float;  (** (1 - band) * Delta *)
  paths : path list;  (** grouped by output, outputs in declaration order *)
  truncated : bool;  (** enumeration stopped at the [max_paths] cap *)
}

exception Capped

let default_band = 0.1
let default_max_paths = 4096

let enumerate ?(band = default_band) ?(max_paths = default_max_paths) sta =
  if not (band >= 0. && band <= 1.) then
    invalid_arg "Paths.enumerate: band must be in [0, 1]";
  if max_paths < 1 then invalid_arg "Paths.enumerate: max_paths must be positive";
  let net = Mapped.network (Sta.circuit sta) in
  let delta = Sta.delta sta in
  let target = (1. -. band) *. delta in
  let acc = ref [] and count = ref 0 and truncated = ref false in
  let emit output rev_tail length =
    if !count >= max_paths then begin
      truncated := true;
      raise Capped
    end;
    incr count;
    (* Signals are prepended as the DFS descends, so the accumulated
       list is already input-first, output-last. *)
    acc := { output; signals = Array.of_list rev_tail; length } :: !acc
  in
  (* [suffix] is the delay of every gate strictly below [s] on the
     partial path (the output side); [rev_tail] lists those signals,
     deepest first, with [s] not yet included. *)
  let rec visit output s ~suffix ~rev_tail =
    if Sta.arrival sta s +. suffix > target +. Sta.eps then begin
      let rev_tail = s :: rev_tail in
      match Network.node_of net s with
      | None -> emit output rev_tail suffix
      | Some nd ->
        let suffix = suffix +. Sta.delay sta s in
        (* A gate wired to the same signal on several pins contributes
           one signal path; sensitization treats all pins of the signal
           together, so duplicates are skipped (first occurrence kept). *)
        Array.iteri
          (fun i f ->
            let dup = ref false in
            for j = 0 to i - 1 do
              if nd.Network.fanins.(j) = f then dup := true
            done;
            if not !dup then visit output f ~suffix ~rev_tail)
          nd.Network.fanins
    end
  in
  (try
     Array.iter
       (fun (name, s) -> visit name s ~suffix:0. ~rev_tail:[])
       (Network.outputs net)
   with Capped -> ());
  { band; target; paths = List.rev !acc; truncated = !truncated }

let num_paths t = List.length t.paths

let to_string net p =
  Printf.sprintf "%s (%.3f)"
    (String.concat " -> "
       (Array.to_list (Array.map (Network.name_of net) p.signals)))
    p.length
