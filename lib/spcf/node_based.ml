(* Node-based SPCF over-approximation in the style of Su et al. [22]:
   gates are marked critical *statically* from arrival/required times, and
   a single stability function per gate is computed in one topological
   pass — no per-path time budgets.

   A gate's stability is evaluated against its own required time
   (target − tail). Because that required time is the tightest over ALL
   fanout branches, a multi-fanout gate that is critical along only one
   branch is treated as critical along every branch — exactly the source
   of over-approximation the paper attributes to node-based traversal.
   The result is guaranteed to be a superset of the exact SPCF:
   stability under-approximates the exact S(z, req(z)) inductively
   (input pins whose structural path through the gate meets the target
   are always on time; critical pins recurse; critical primary inputs
   never witness stability — "any path through a critical gate"). *)

let c_critical_gates = Obs.counter "spcf.node.critical_gates"

let value_bdd ctx s v =
  if v then ctx.Ctx.funcs.(s) else Bdd.bnot ctx.Ctx.man ctx.Ctx.funcs.(s)

let compute ctx ~target =
  let outputs, runtime =
    Obs.timed "spcf.node-based" (fun () ->
        let net = Ctx.network ctx in
        let n = Network.num_signals net in
        let target_units = Ctx.units_of_target target in
        let tail_units =
          Array.map Ctx.units_of_delay (Array.init n (Sta.tail ctx.Ctx.sta))
        in
        let arrival_units = ctx.Ctx.arrival_units in
        let critical s = arrival_units.(s) + tail_units.(s) > target_units in
        let stable = Array.make n Bdd.btrue in
        Obs.with_span "stability-pass" (fun () ->
            Array.iter
              (fun s ->
                match Network.node_of net s with
                | None -> if critical s then stable.(s) <- Bdd.bfalse
                | Some nd ->
                  if critical s then begin
                    Obs.incr c_critical_gates;
                    let d = ctx.Ctx.delay_units.(s) in
                    (* Pin (i -> s) lies on a structural path longer than the
                       target iff arr(i) + δ + tail(s) exceeds it. *)
                    let pin_long i =
                      arrival_units.(i) + d + tail_units.(s) > target_units
                    in
                    let in_time l =
                      let i = nd.Network.fanins.(l lsr 1) in
                      let lit = value_bdd ctx i (l land 1 = 1) in
                      if pin_long i then Bdd.band ctx.Ctx.man lit stable.(i) else lit
                    in
                    let prime_term lits =
                      Array.fold_left
                        (fun acc l ->
                          if acc = Bdd.bfalse then acc
                          else Bdd.band ctx.Ctx.man acc (in_time l))
                        Bdd.btrue lits
                    in
                    (* On-set primes first, then off-set primes. *)
                    let or_primes acc cubes =
                      Array.fold_left
                        (fun acc lits -> Bdd.bor ctx.Ctx.man acc (prime_term lits))
                        acc cubes
                    in
                    stable.(s) <-
                      or_primes
                        (or_primes Bdd.bfalse ctx.Ctx.primes.((s lsl 1) lor 1))
                        ctx.Ctx.primes.(s lsl 1)
                  end)
              (Network.topo_order net));
        Array.to_list (Sta.critical_outputs ctx.Ctx.sta ~target)
        |> List.map (fun (name, y) ->
               let sigma =
                 Obs.with_span ("output:" ^ name) (fun () ->
                     Bdd.bnot ctx.Ctx.man stable.(y))
               in
               (name, y, sigma)))
  in
  Ctx.make_result ctx ~algorithm:"node-based" ~target outputs ~runtime
