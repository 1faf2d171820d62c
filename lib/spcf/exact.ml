(* Exact SPCF computation (floating-mode timing semantics).

   For a pattern I, a signal z carrying value v stabilizes once some
   prime implicant p of its gate's on-set (v = 1) or off-set (v = 0) is
   satisfied with every literal's source signal already stable. The
   stability function

     S_v(z, T) = patterns where z takes value v and stabilizes by T
               = ⋁_{p ∈ primes_v} ⋀_{l ∈ L(p)} S_{phase(l)}(input_l, T − δ_z)

   is the paper's Eqn. 1 refined per output value; the SPCF at output y is
   Σ_y(T) = ¬(S_0(y,T) ∨ S_1(y,T)).

   Two cost regimes share this engine:
   - the *proposed short-path-based* algorithm memoizes (signal, value,
     budget) globally and cuts recursion with the structural-arrival
     shortcut (a signal is always stable by its static arrival time);
   - the *path-based extension of [22]* explores the same recursion
     without the shortcut and without sharing across outputs, so its
     work grows with the number of distinct path-delay suffixes — the
     path-traversal cost the paper reports as ≈3.5× slower. *)

type options = {
  arrival_shortcut : bool;
  share_across_outputs : bool;
}

let proposed_options = { arrival_shortcut = true; share_across_outputs = true }

let value_bdd ctx s v =
  if v then ctx.Ctx.funcs.(s) else Bdd.bnot ctx.Ctx.man ctx.Ctx.funcs.(s)

(* The (signal, value, budget) memo: an open-addressing table over
   packed int keys [(budget lsl 32) lor (signal lsl 1) lor value], so a
   probe allocates nothing but the [Some] of a hit. A memo built
   [~shared:true] is the team memo of a parallel run: 64 stripes, each
   behind its own mutex and selected by high hash bits, so workers take
   each other's entries instead of recomputing them. A value is a
   canonical handle in the one shared manager, so two workers that
   compute the same key concurrently compute the same handle, and
   insert-if-absent keeps the first. An unshared memo is one stripe and
   takes no lock. *)
module Memo = struct
  type stripe = {
    lock : Mutex.t;
    mutable keys : int array; (* -1 = empty slot *)
    mutable vals : Bdd.t array;
    mutable count : int;
  }

  type t = { stripes : stripe array; locked : bool }

  let nstripes = 64

  (* Key ranges: a budget below 2^30 and a signal below 2^31 keep the
     packed key a non-negative 63-bit int. *)
  let max_budget = (1 lsl 30) - 1
  let max_signal = (1 lsl 31) - 1

  let stripe cap =
    {
      lock = Mutex.create ();
      keys = Array.make cap (-1);
      vals = Array.make cap Bdd.bfalse;
      count = 0;
    }

  let create ~shared =
    if shared then { stripes = Array.init nstripes (fun _ -> stripe 256); locked = true }
    else { stripes = [| stripe 1024 |]; locked = false }

  let[@inline] key s v budget =
    if budget > max_budget || s > max_signal then
      invalid_arg "Spcf.Exact: time budget or signal id out of the memo key range";
    (budget lsl 32) lor (s lsl 1) lor Bool.to_int v

  let[@inline] mix key =
    let h = key * 0x27D4EB2F165667C5 in
    h lxor (h lsr 32)

  let[@inline] stripe_of t h =
    if t.locked then Array.unsafe_get t.stripes ((h lsr 40) land (nstripes - 1))
    else Array.unsafe_get t.stripes 0

  (* Slot of [key] in [st], or of the empty slot that ends its probe. *)
  let slot st h key =
    let keys = st.keys in
    let mask = Array.length keys - 1 in
    let i = ref (h land mask) in
    while
      let k = Array.unsafe_get keys !i in
      k <> key && k <> -1
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow st =
    let keys = st.keys and vals = st.vals in
    let cap = 2 * Array.length keys in
    st.keys <- Array.make cap (-1);
    st.vals <- Array.make cap Bdd.bfalse;
    for j = 0 to Array.length keys - 1 do
      let k = Array.unsafe_get keys j in
      if k <> -1 then begin
        let i = slot st (mix k) k in
        Array.unsafe_set st.keys i k;
        Array.unsafe_set st.vals i (Array.unsafe_get vals j)
      end
    done

  let find t key =
    let h = mix key in
    let st = stripe_of t h in
    if t.locked then Mutex.lock st.lock;
    let i = slot st h key in
    let r =
      if Array.unsafe_get st.keys i = key then Some (Array.unsafe_get st.vals i) else None
    in
    if t.locked then Mutex.unlock st.lock;
    r

  let add t key r =
    let h = mix key in
    let st = stripe_of t h in
    if t.locked then Mutex.lock st.lock;
    let i = slot st h key in
    if Array.unsafe_get st.keys i = -1 then begin
      Array.unsafe_set st.keys i key;
      Array.unsafe_set st.vals i r;
      st.count <- st.count + 1;
      if st.count * 4 > Array.length st.keys * 3 then grow st
    end;
    if t.locked then Mutex.unlock st.lock

  let length t = Array.fold_left (fun acc st -> acc + st.count) 0 t.stripes
end

let c_stab_calls = Obs.counter "spcf.stability.calls"
let c_stab_memo_hits = Obs.counter "spcf.stability.memo_hits"
let c_stab_shortcut = Obs.counter "spcf.stability.shortcut_cuts"
let c_late_calls = Obs.counter "spcf.lateness.calls"
let c_late_memo_hits = Obs.counter "spcf.lateness.memo_hits"
let h_depth = Obs.histogram "spcf.recursion_depth"

(* Stability S_v(s, budget) with [memo] keyed on (signal, value, budget).
   [depth] only feeds the recursion-depth histogram. The primes come
   from the context's compiled tables; a cube's literals are walked
   until its conjunction is false, every cube of the cover is OR-ed in. *)
let rec stability ctx ~opts ~memo ~depth s v budget =
  Obs.incr c_stab_calls;
  if budget < 0 then Bdd.bfalse
  else begin
    let net = Ctx.network ctx in
    if Network.is_input net s then value_bdd ctx s v
    else if opts.arrival_shortcut && budget >= ctx.Ctx.arrival_units.(s) then begin
      Obs.incr c_stab_shortcut;
      value_bdd ctx s v
    end
    else begin
      let key = Memo.key s v budget in
      match Memo.find memo key with
      | Some r ->
        Obs.incr c_stab_memo_hits;
        r
      | None ->
        Obs.observe h_depth depth;
        let man = ctx.Ctx.man in
        let cubes = ctx.Ctx.primes.((s lsl 1) lor Bool.to_int v) in
        let fanins = Network.fanins net s in
        let budget' = budget - ctx.Ctx.delay_units.(s) in
        let r = ref Bdd.bfalse in
        for c = 0 to Array.length cubes - 1 do
          let lits = Array.unsafe_get cubes c in
          let term = ref Bdd.btrue and i = ref 0 in
          while !i < Array.length lits && !term <> Bdd.bfalse do
            let l = Array.unsafe_get lits !i in
            let child =
              stability ctx ~opts ~memo ~depth:(depth + 1) fanins.(l lsr 1)
                (l land 1 = 1) budget'
            in
            term := Bdd.band man !term child;
            incr i
          done;
          r := Bdd.bor man !r !term
        done;
        Memo.add memo key !r;
        !r
    end
  end

let sigma_of_output ctx ~opts ~memo y target_units =
  let s1 =
    Obs.with_span "stability" (fun () ->
        stability ctx ~opts ~memo ~depth:0 y true target_units)
  in
  let s0 =
    Obs.with_span "stability" (fun () ->
        stability ctx ~opts ~memo ~depth:0 y false target_units)
  in
  Bdd.bnot ctx.Ctx.man (Bdd.bor ctx.Ctx.man s0 s1)

(* Long-path activation ("lateness") functions, computed directly in
   product-of-sums form — the dual formulation the path-based extension
   of [22] uses:

     U_v(z, T) = value_v(z) ∧ ⋀_{p ∈ primes_v} ⋁_{l ∈ L(p)} ¬S(l, T − δ_z)

   where ¬S(l, T') for a literal is "wrong value or not yet stable". The
   result is identical to ¬(S₀ ∨ S₁) (checked by the test suite), but
   the conjunction-of-disjunctions expansion walks every path-suffix
   context — the cost profile of path-based traversal. A cube's
   disjunction stops once true, the conjunction once false. *)
let rec lateness ctx ~memo ~depth s v budget =
  Obs.incr c_late_calls;
  let man = ctx.Ctx.man in
  let net = Ctx.network ctx in
  if budget < 0 then value_bdd ctx s v
  else if Network.is_input net s then Bdd.bfalse
  else begin
    let key = Memo.key s v budget in
    match Memo.find memo key with
    | Some r ->
      Obs.incr c_late_memo_hits;
      r
    | None ->
      Obs.observe h_depth depth;
      let cubes = ctx.Ctx.primes.((s lsl 1) lor Bool.to_int v) in
      let fanins = Network.fanins net s in
      let budget' = budget - ctx.Ctx.delay_units.(s) in
      let blocked_all = ref Bdd.btrue and c = ref 0 in
      while !c < Array.length cubes && !blocked_all <> Bdd.bfalse do
        let lits = Array.unsafe_get cubes !c in
        (* ¬S for a literal: value mismatch, or matching but late. *)
        let blocked = ref Bdd.bfalse and i = ref 0 in
        while !i < Array.length lits && !blocked <> Bdd.btrue do
          let l = Array.unsafe_get lits !i in
          let input = fanins.(l lsr 1) and phase = l land 1 = 1 in
          let late = lateness ctx ~memo ~depth:(depth + 1) input phase budget' in
          let not_stable = Bdd.bor man (value_bdd ctx input (not phase)) late in
          blocked := Bdd.bor man !blocked not_stable;
          incr i
        done;
        blocked_all := Bdd.band man !blocked_all !blocked;
        incr c
      done;
      let r = Bdd.band man (value_bdd ctx s v) !blocked_all in
      Memo.add memo key r;
      r
  end

let sigma_of_output_lateness ctx ~memo y target_units =
  let u1 =
    Obs.with_span "lateness" (fun () ->
        lateness ctx ~memo ~depth:0 y true target_units)
  in
  let u0 =
    Obs.with_span "lateness" (fun () ->
        lateness ctx ~memo ~depth:0 y false target_units)
  in
  Bdd.bor ctx.Ctx.man u0 u1

(* Per-output SPCFs for an explicit output set — the unit of work the
   domain-parallel driver (Spcf.Parallel) hands to each worker. The memo
   ([memo], else a fresh unshared one) is shared across the given
   outputs exactly when the options say so; otherwise each output gets
   a fresh memo of its own. *)
let sigmas ?memo ctx ~opts ~outputs ~target_units =
  let shared = match memo with Some m -> m | None -> Memo.create ~shared:false in
  Array.to_list outputs
  |> List.map (fun (name, y) ->
         (* Un-amortized checkpoint at each output boundary: a worker
            whose team-mate cancelled (or whose deadline passed) stops
            before starting the next cone even if its own op counter
            is cold. *)
         Budget.poll ctx.Ctx.budget;
         let memo =
           if opts.share_across_outputs then shared else Memo.create ~shared:false
         in
         let sigma =
           Obs.with_span ("output:" ^ name) (fun () ->
               sigma_of_output ctx ~opts ~memo y target_units)
         in
         (name, y, sigma))

(* Runtimes are measured through [Obs.timed] — the same clock that feeds
   the span tree — so the CLI-reported runtime and the statistics agree
   whether or not observation is enabled. *)
let compute ctx ~opts ~algorithm ~target =
  let outputs, runtime =
    Obs.timed ("spcf." ^ algorithm) (fun () ->
        let target_units = Ctx.units_of_target target in
        let critical = Sta.critical_outputs ctx.Ctx.sta ~target in
        sigmas ctx ~opts ~outputs:critical ~target_units)
  in
  Ctx.make_result ctx ~algorithm ~target outputs ~runtime

let short_path ctx ~target =
  compute ctx ~opts:proposed_options ~algorithm:"short-path-based" ~target

(* Lateness-formulation counterpart of [sigmas]: fresh memo per output,
   as the path-based extension prescribes (no cross-output sharing). *)
let sigmas_lateness ctx ~outputs ~target_units =
  Array.to_list outputs
  |> List.map (fun (name, y) ->
         Budget.poll ctx.Ctx.budget;
         let memo = Memo.create ~shared:false in
         let sigma =
           Obs.with_span ("output:" ^ name) (fun () ->
               sigma_of_output_lateness ctx ~memo y target_units)
         in
         (name, y, sigma))

(* The exact path-based extension of [22]: per-output computation of the
   long-path activation functions in their direct product-of-sums form,
   without cross-output sharing or the structural-arrival shortcut. *)
let path_based ctx ~target =
  let outputs, runtime =
    Obs.timed "spcf.path-based" (fun () ->
        let target_units = Ctx.units_of_target target in
        let critical = Sta.critical_outputs ctx.Ctx.sta ~target in
        sigmas_lateness ctx ~outputs:critical ~target_units)
  in
  Ctx.make_result ctx ~algorithm:"path-based" ~target outputs ~runtime

(* Exact floating-mode delay of a signal: the largest stabilization time
   over all input patterns, found by binary search on the stability
   functions. This is the circuit's "true" (sensitizable) delay, as
   opposed to the structural delay of static timing analysis. *)
let floating_delay ctx s =
  let man = ctx.Ctx.man in
  let stable_at t =
    let memo = Memo.create ~shared:false in
    let s1 = stability ctx ~opts:proposed_options ~memo ~depth:0 s true t in
    let s0 = stability ctx ~opts:proposed_options ~memo ~depth:0 s false t in
    Bdd.bor man s0 s1 = Bdd.btrue
  in
  (* Smallest t with all patterns stable by t. *)
  let rec search lo hi =
    (* invariant: not (stable_at (lo-1)) ... stable_at hi *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if stable_at mid then search lo mid else search (mid + 1) hi
  in
  let hi = ctx.Ctx.arrival_units.(s) in
  float_of_int (search 0 hi) *. Ctx.grid

(* Exact floating-mode stabilization times (in grid units) of every
   signal for one concrete input pattern — the reference semantics used
   by tests and by brute-force SPCF cross-validation. A gate settles at
   the earliest of its consistent primes (those of its final value
   whose literals all hold), each settling one delay after its latest
   literal source. *)
let pattern_arrivals ctx pattern =
  let net = Ctx.network ctx in
  let values = Network.eval net pattern in
  let n = Network.num_signals net in
  let arrival = Array.make n 0 in
  Array.iter
    (fun s ->
      if not (Network.is_input net s) then begin
        let cubes = ctx.Ctx.primes.((s lsl 1) lor Bool.to_int values.(s)) in
        let fanins = Network.fanins net s in
        let d = ctx.Ctx.delay_units.(s) in
        let consistent lits =
          Array.for_all (fun l -> values.(fanins.(l lsr 1)) = (l land 1 = 1)) lits
        in
        let prime_time lits =
          Array.fold_left (fun acc l -> max acc (arrival.(fanins.(l lsr 1)) + d)) d lits
        in
        let best =
          Array.fold_left
            (fun acc lits -> if consistent lits then min acc (prime_time lits) else acc)
            max_int cubes
        in
        (* Every pattern satisfies some prime of the on-set or off-set. *)
        assert (best < max_int);
        arrival.(s) <- best
      end)
    (Network.topo_order net);
  (values, arrival)
