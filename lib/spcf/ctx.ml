(* Shared context for SPCF computation over a technology-mapped circuit:
   static timing, global signal BDDs, integer-grid gate delays, and the
   compiled prime-implicant tables of every gate.

   Delays are snapped to a 0.01-unit grid (all library delays are exact
   multiples), so stabilization times live on an integer lattice and the
   comparison "stable by the target" is exact in integer arithmetic.

   Prime tables. Every SPCF recursion step at a gate walks the on-set
   (value 1) or off-set (value 0) primes of its cell. They are compiled
   once per context into flat literal arrays: [primes.((s lsl 1) lor v)]
   holds gate [s]'s value-[v] primes, one [int array] per cube, each
   literal stored as [(pin lsl 1) lor phase] with [pin] an index into
   the gate's fanins. All gates of one cell share one table, so
   compiling costs one prime computation per distinct cell and no
   allocation per gate. Cube order and literal order are those of
   [Logic2.Cover.cubes] and [Logic2.Cube.literals], so the recursions
   issue exactly the BDD operations they did on the covers. The arrays
   are immutable after construction, so worker domains read them
   without synchronisation. *)

type t = {
  circuit : Mapped.t;
  model : Sta.delay_model;
  sta : Sta.t;
  man : Bdd.man;
  funcs : Bdd.t array; (* per signal, over primary-input BDD variables *)
  delay_units : int array; (* per signal: driving-gate delay, grid units *)
  arrival_units : int array;
  primes : int array array array; (* (signal lsl 1) lor value -> cubes *)
  budget : Budget.t; (* governs the manager; Budget.unlimited by default *)
}

let grid = 0.01

let units_of_delay d = int_of_float (Float.round (d /. grid))

(* Largest integer t with t*grid <= target (+ epsilon for exact floats):
   a signal stabilizing at lattice time a is within target iff a <= t. *)
let units_of_target target = int_of_float (Float.floor ((target /. grid) +. 1e-6))

let c_primes_hits = Obs.counter "spcf.primes.cache_hits"
let c_primes_computed = Obs.counter "spcf.primes.computed"
let h_primes_cubes = Obs.histogram "spcf.primes.cover_cubes"

let table_of_cover cover =
  Array.of_list
    (List.map
       (fun cube ->
         Array.of_list
           (List.map
              (fun (pin, phase) -> (pin lsl 1) lor Bool.to_int phase)
              (Logic2.Cube.literals cube)))
       (Logic2.Cover.cubes cover))

(* Primes are computed once per distinct cell ([spcf.primes.computed]);
   every further gate of that cell reuses them ([spcf.primes.cache_hits]). *)
let compile_primes circuit =
  let net = Mapped.network circuit in
  let primes = Array.make (2 * Network.num_signals net) [||] in
  let by_cell = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      match Mapped.cell_of circuit s with
      | None -> ()
      | Some cell ->
        let on, off =
          match Hashtbl.find_opt by_cell cell.Cell.cname with
          | Some pair ->
            Obs.incr c_primes_hits;
            pair
          | None ->
            Obs.incr c_primes_computed;
            let on, off = Logic2.Primes.onset_and_offset_primes cell.Cell.logic in
            Obs.observe h_primes_cubes
              (Logic2.Cover.num_cubes on + Logic2.Cover.num_cubes off);
            let pair = (table_of_cover on, table_of_cover off) in
            Hashtbl.replace by_cell cell.Cell.cname pair;
            pair
        in
        primes.((s lsl 1) lor 1) <- on;
        primes.(s lsl 1) <- off)
    (Network.topo_order net);
  primes

let of_funcs ~model ~sta ~budget circuit man funcs =
  let net = Mapped.network circuit in
  let delay_units = Array.map units_of_delay (Sta.gate_delays model circuit) in
  let arrival_units = Array.make (Network.num_signals net) 0 in
  Array.iter
    (fun s ->
      match Network.node_of net s with
      | None -> ()
      | Some nd ->
        let worst =
          Array.fold_left (fun acc f -> max acc arrival_units.(f)) 0 nd.Network.fanins
        in
        arrival_units.(s) <- worst + delay_units.(s))
    (Network.topo_order net);
  {
    circuit;
    model;
    sta;
    man;
    funcs;
    delay_units;
    arrival_units;
    primes = compile_primes circuit;
    budget;
  }

let create ?(model = Sta.Library) ?(budget = Budget.unlimited) ?shared:_ circuit =
  Obs.enter "spcf.ctx.create";
  (* Budget exhaustion can raise out of [to_bdds]; keep the span tree
     balanced on that path. *)
  Fun.protect ~finally:Obs.leave @@ fun () ->
  let sta = Obs.with_span "sta.analyze" (fun () -> Sta.analyze ~model circuit) in
  let man, funcs =
    Obs.with_span "network.to_bdds" (fun () ->
        Network.to_bdds ~budget (Mapped.network circuit))
  in
  of_funcs ~model ~sta ~budget circuit man funcs

let network t = Mapped.network t.circuit

let delta t = Sta.delta t.sta

(* The default experiment target: speed-paths within (1 - theta) of the
   critical path delay; the paper uses theta = 0.9. *)
let paper_theta = 0.9
let target_of_theta t theta = theta *. delta t

(* Per-output SPCF result of one algorithm run. *)
type result = {
  target : float;
  algorithm : string;
  outputs : (string * Network.signal * Bdd.t) list; (* critical POs only *)
  union : Bdd.t;
  runtime : float;
}

let count t result = Bdd.satcount t.man result.union

let num_critical_outputs result = List.length result.outputs

let make_result t ~algorithm ~target outputs ~runtime =
  let union =
    List.fold_left (fun acc (_, _, b) -> Bdd.bor t.man acc b) Bdd.bfalse outputs
  in
  { target; algorithm; outputs; union; runtime }
