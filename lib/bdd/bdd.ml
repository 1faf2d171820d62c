(* Reduced ordered binary decision diagrams with complement edges
   (Brace, Rudell and Bryant, DAC 1990), a hash-consed unique table and
   a computed table, per manager. Variables are 0 .. nvars-1 in fixed
   order.

   Handle encoding (one encoding, both backends). A handle is
   [(node lsl 1) lor c]: bit 0 is the complement flag, the rest a node
   id. Node 0 is the only terminal and stands for false, so
   [bfalse = 0] and [btrue = 1] (the complemented terminal). A node
   stores (var, low, high) where [low] may be complemented but [high]
   is always regular; [mk] restores that invariant by complementing
   both children and the result, which keeps the representation
   canonical: equal functions have equal handles, and [bnot] is
   [lxor 1] — no traversal, no new node. The cofactor accessors
   ([var_of]/[low_of]/[high_of]) propagate the complement flag, so a
   walker that only sees handles observes the plain ROBDD of the
   function (every exported DAG, ISOP and satcount is unchanged by the
   encoding).

   Apply operations: [ite] normalises its arguments to a standard
   triple (f and g regular, complement factored onto the result) and
   hands the AND/OR forms ([ite f g 0], [ite f 1 h], ...) to one
   commutative AND recursion with ordered operands, and [ite f (not h)
   h] to one XOR recursion that factors out the complement parity. The
   recursions compute cofactors field by field (no tuples, no
   allocation) and share one direct-mapped computed table whose key
   carries an op tag. Every step counts as a [bdd.ite.*] call.

   A manager has one of two storage backends (see DESIGN.md §8 and §13):

   - [Seq] — the single-domain backend: flat int arrays for the node
     store, an open-addressing unique table with linear probing, and a
     lossy direct-mapped computed table with packed keys. No atomics,
     no locks, no indirection on the hot path.

   - [Shr] — the shared-memory backend ([create_shared]): one unique
     table that several domains grow concurrently. The node store is a
     preallocated spine of stride-3 chunks (var/low/high adjacent for
     cache locality); node ids are claimed from an atomic counter, so
     handles never move once published. The unique table is striped:
     64 independent open-addressing sub-tables of plain ints, each
     with its own mutex, selected by high hash bits. Every probe and
     insert of a stripe runs under its lock, and the lock holder grows
     the stripe alone with the sequential reinsert loop (the locked
     stripe protocol of DESIGN.md §13). The computed cache stays
     per-domain (Domain.DLS) so the ~90% hit path never touches shared
     cache lines; [clear_caches] bumps a global generation that
     orphans every domain's entries at their next operation.

   Cell elaboration ([cover_with]) compiles every cover of at most 5
   variables into a short AND/XOR/ITE program once and replays it per
   gate (see "compiled cell elaboration" below). *)

type t = int

let bfalse : t = 0
let btrue : t = 1

(* Hard ceiling on node ids: handles stay below 2^31, so two of them
   pack into one computed-table key word. *)
let max_nodes = 1 lsl 30

(* Instrumentation probes (free when Obs is disabled). Every AND, XOR
   and ITE recursion step counts under the [bdd.ite.*] names. *)
let c_ite_calls = Obs.counter "bdd.ite.calls"
let c_ite_hits = Obs.counter "bdd.ite.cache_hits"
let c_ite_misses = Obs.counter "bdd.ite.cache_misses"
let c_unique_hits = Obs.counter "bdd.unique.hits"
let c_unique_inserts = Obs.counter "bdd.unique.inserts"
let c_unique_rehash = Obs.counter "bdd.unique.rehash_events"
let c_grow = Obs.counter "bdd.grow_events"
let c_nodes_max = Obs.counter "bdd.nodes.max"

(* Contention probe for the shared backend. *)
let c_stripe_waits = Obs.counter "bdd.shared.stripe_waits"

(* Integer mix of a (var, low, high) triple: three odd multipliers from
   the murmur3/splitmix64 finalizers, then a 64-bit avalanche. The
   result may be negative; callers mask with [land] (the mask is
   positive, so the slot index always lands in range). *)
let[@inline] mix3 a b c =
  let h = (a * 0x9E3779B1) + (b * 0x85EBCA77) + (c * 0xC2B2AE3D) in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27D4EB2F165667C5 in
  h lxor (h lsr 32)

let[@inline] imin (a : int) b = if a < b then a else b

(* Computed-table keys: word 1 packs the first two operands
   [(f lsl 31) lor g]; word 2 packs [tag lor (gen lsl 31) lor h], with
   the op tag in bits 61-62 above the 30-bit generation. AND and XOR
   entries have no third operand (h = 0). *)
let tag_and = 1 lsl 61
let tag_xor = 2 lsl 61

(* ---------- sequential backend ---------- *)

type seq = {
  mutable var : int array; (* variable label per node id; nvars for the terminal *)
  mutable low : int array; (* low edge: a handle, possibly complemented *)
  mutable high : int array; (* high edge: always a regular handle *)
  mutable n_nodes : int; (* node ids in use, the terminal included *)
  (* unique table: open addressing over node ids, capacity = umask + 1
     (power of two) *)
  mutable utable : int array;
  mutable umask : int;
  (* computed table: direct-mapped, capacity = cmask + 1 *)
  mutable ck1 : int array;
  mutable ck2 : int array;
  mutable cres : int array;
  mutable cmask : int;
  mutable cgen : int; (* generation tag, < 2^30 *)
  cache_fixed : bool; (* explicit ~cache_bits: never resize (tests) *)
}

(* ---------- shared backend ---------- *)

(* Node storage: [chunk_nodes] nodes per chunk, stride 3 (var, low,
   high adjacent). The spine is preallocated for the 2^30 ceiling, so
   growth never moves a published node. *)
let chunk_bits = 16
let chunk_nodes = 1 lsl chunk_bits
let chunk_mask = chunk_nodes - 1
let nstripes = 64

(* One unique-table stripe: open addressing over node ids, capacity a
   power of two. Both mutable fields are read and written only under
   [st_lock] ([unique_capacity], a diagnostic, reads the length at
   quiescence). *)
type stripe = {
  st_lock : Mutex.t;
  mutable st_slots : int array;
  mutable st_count : int; (* interned nodes *)
}

type shr = {
  uid : int; (* distinguishes managers in the per-domain cache *)
  chunks : int array array; (* spine; plain writes published via [limit] *)
  alloc_lock : Mutex.t;
  limit : int Atomic.t; (* allocated node capacity (release store) *)
  next : int Atomic.t; (* next node id to claim *)
  stripes : stripe array;
  sgen : int Atomic.t; (* shared computed-cache generation *)
  s_cache_bits : int;
}

type backend = Seq of seq | Shr of shr

type man = {
  nvars : int;
  tab : backend;
  mutable budget : Budget.t;
      (* resource governance; Budget.unlimited (the default) keeps the
         hot paths to a single physical-equality test. In shared mode
         the budget is installed before workers spawn and read-only
         afterwards. *)
}

let cache_make bits =
  let cap = 1 lsl bits in
  (Array.make cap (-1), Array.make cap 0, Array.make cap 0, cap - 1)

let default_cache_bits = 14
let default_shared_cache_bits = 16
let max_cache_bits = 20

let check_cache_bits = function
  | Some b when b < 1 || b > max_cache_bits -> invalid_arg "Bdd.create: cache_bits"
  | _ -> ()

let create ?cache_bits ~nvars () =
  if nvars < 0 then invalid_arg "Bdd.create: negative nvars";
  check_cache_bits cache_bits;
  let cbits, cache_fixed =
    match cache_bits with None -> (default_cache_bits, false) | Some b -> (b, true)
  in
  let cap = 1024 in
  let var = Array.make cap 0 and low = Array.make cap 0 and high = Array.make cap 0 in
  (* The terminal: var = nvars, both edges to itself, so the cofactors
     of a constant are that constant. *)
  var.(0) <- nvars;
  let ck1, ck2, cres, cmask = cache_make cbits in
  {
    nvars;
    tab =
      Seq
        {
          var;
          low;
          high;
          n_nodes = 1;
          utable = Array.make 4096 0;
          umask = 4095;
          ck1;
          ck2;
          cres;
          cmask;
          cgen = 0;
          cache_fixed;
        };
    budget = Budget.unlimited;
  }

let shared_uid = Atomic.make 1

let create_shared ?cache_bits ~nvars () =
  if nvars < 0 then invalid_arg "Bdd.create_shared: negative nvars";
  check_cache_bits cache_bits;
  let cbits = Option.value cache_bits ~default:default_shared_cache_bits in
  let chunks = Array.make (max_nodes lsr chunk_bits) [||] in
  let c0 = Array.make (chunk_nodes * 3) 0 in
  (* The terminal: var = nvars, both edges to itself. *)
  c0.(0) <- nvars;
  chunks.(0) <- c0;
  let stripe () =
    { st_lock = Mutex.create (); st_slots = Array.make 64 0; st_count = 0 }
  in
  {
    nvars;
    tab =
      Shr
        {
          uid = Atomic.fetch_and_add shared_uid 1;
          chunks;
          alloc_lock = Mutex.create ();
          limit = Atomic.make chunk_nodes;
          next = Atomic.make 1;
          stripes = Array.init nstripes (fun _ -> stripe ());
          sgen = Atomic.make 0;
          s_cache_bits = cbits;
        };
    budget = Budget.unlimited;
  }

let is_shared man = match man.tab with Seq _ -> false | Shr _ -> true

let set_budget man b = man.budget <- b
let budget man = man.budget

let nvars man = man.nvars

(* Shared-backend field access by node id. A node id only ever reaches
   a domain through a stripe lock, another mutex (the SPCF team memo)
   or Domain.spawn/join, each of which makes the plain chunk writes
   behind it visible — see DESIGN.md §13. *)
let[@inline] sh_var h n =
  Array.unsafe_get (Array.unsafe_get h.chunks (n lsr chunk_bits)) ((n land chunk_mask) * 3)

let[@inline] sh_low h n =
  Array.unsafe_get
    (Array.unsafe_get h.chunks (n lsr chunk_bits))
    (((n land chunk_mask) * 3) + 1)

let[@inline] sh_high h n =
  Array.unsafe_get
    (Array.unsafe_get h.chunks (n lsr chunk_bits))
    (((n land chunk_mask) * 3) + 2)

let num_nodes man =
  match man.tab with Seq s -> s.n_nodes | Shr h -> Atomic.get h.next

let unique_capacity man =
  match man.tab with
  | Seq s -> s.umask + 1
  | Shr h ->
    Array.fold_left (fun acc st -> acc + Array.length st.st_slots) 0 h.stripes

let cache_capacity man =
  match man.tab with Seq s -> s.cmask + 1 | Shr h -> 1 lsl h.s_cache_bits

(* Invalidate every computed-table entry in O(1): entries carry the
   generation in their second key word, so bumping the tag orphans them.
   The generation wraps at 2^30 to keep the packing in range — after
   2^30 clears an ancient entry could in principle alias, which is
   indistinguishable from an ordinary cache collision given the entry
   would also need matching keys. In shared mode the bump invalidates
   every domain's cache at its next operation. *)
let clear_caches man =
  match man.tab with
  | Seq s -> s.cgen <- (s.cgen + 1) land (max_nodes - 1)
  | Shr h -> Atomic.set h.sgen ((Atomic.get h.sgen + 1) land (max_nodes - 1))

(* Cofactor accessors for the cold (traversal) paths: the variable of
   the handle's node, and its low/high cofactors with the handle's
   complement flag propagated. The hot apply paths below are
   specialized per backend instead. *)
let[@inline] ivar man f =
  match man.tab with
  | Seq s -> Array.unsafe_get s.var (f lsr 1)
  | Shr h -> sh_var h (f lsr 1)

let[@inline] ilow man f =
  (match man.tab with
  | Seq s -> Array.unsafe_get s.low (f lsr 1)
  | Shr h -> sh_low h (f lsr 1))
  lxor (f land 1)

let[@inline] ihigh man f =
  (match man.tab with
  | Seq s -> Array.unsafe_get s.high (f lsr 1)
  | Shr h -> sh_high h (f lsr 1))
  lxor (f land 1)

let is_terminal f = f < 2
let var_of man f = ivar man f
let low_of man f = ilow man f
let high_of man f = ihigh man f

(* ---------- sequential mk / apply (the uncontended fast path) ---------- *)

let grow_nodes s =
  Obs.incr c_grow;
  Obs.instant "bdd.grow";
  let cap = Array.length s.var in
  if cap >= max_nodes then failwith "Bdd: node limit (2^30) exceeded";
  let cap' = cap * 2 in
  let extend a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  s.var <- extend s.var;
  s.low <- extend s.low;
  s.high <- extend s.high

(* Double the unique table and reinsert every interned node. Insertion
   scans for the first empty slot — no deletions ever happen, so there
   are no tombstones and every probe chain is a contiguous run. *)
let unique_rehash s =
  Obs.incr c_unique_rehash;
  Obs.instant "bdd.unique.rehash";
  let mask' = ((s.umask + 1) * 2) - 1 in
  let t' = Array.make (mask' + 1) 0 in
  for n = 1 to s.n_nodes - 1 do
    let i = ref (mix3 s.var.(n) s.low.(n) s.high.(n) land mask') in
    while Array.unsafe_get t' !i <> 0 do
      i := (!i + 1) land mask'
    done;
    Array.unsafe_set t' !i n
  done;
  s.utable <- t';
  s.umask <- mask';
  (* Let the lossy computed table track the unique table up to a
     ceiling: dropping the resident entries is sound (it is a cache) and
     growth events are logarithmically rare, so there are no rehash
     storms. *)
  if (not s.cache_fixed) && s.cmask + 1 < 1 lsl max_cache_bits && s.cmask < mask'
  then begin
    let bits =
      let rec bits_of n acc = if n <= 1 then acc else bits_of (n lsr 1) (acc + 1) in
      min max_cache_bits (bits_of (mask' + 1) 0)
    in
    let ck1, ck2, cres, cmask = cache_make bits in
    s.ck1 <- ck1;
    s.ck2 <- ck2;
    s.cres <- cres;
    s.cmask <- cmask
  end

(* Hash-consing find-or-insert of a normalised triple (high regular);
   returns the node id. One probe sequence serves both the lookup and
   the insertion point: the first empty slot terminates an unsuccessful
   probe and is exactly where the new node id goes. *)
let intern_seq man s v lo hi =
  let table = s.utable and mask = s.umask in
  let var = s.var and low = s.low and high = s.high in
  let i = ref (mix3 v lo hi land mask) in
  let found = ref 0 in
  let scanning = ref true in
  while !scanning do
    let n = Array.unsafe_get table !i in
    if n = 0 then scanning := false
    else if
      Array.unsafe_get var n = v
      && Array.unsafe_get low n = lo
      && Array.unsafe_get high n = hi
    then begin
      found := n;
      scanning := false
    end
    else i := (!i + 1) land mask
  done;
  if !found > 0 then begin
    Obs.incr c_unique_hits;
    !found
  end
  else begin
    Obs.incr c_unique_inserts;
    if s.n_nodes >= Array.length s.var then grow_nodes s;
    let n = s.n_nodes in
    s.var.(n) <- v;
    s.low.(n) <- lo;
    s.high.(n) <- hi;
    s.n_nodes <- n + 1;
    if man.budget != Budget.unlimited then Budget.check_nodes man.budget (n + 1);
    Obs.record_max c_nodes_max (n + 1);
    Array.unsafe_set table !i n;
    if (s.n_nodes - 1) * 4 > (mask + 1) * 3 then unique_rehash s;
    n
  end

(* The handle of (v, lo, hi): a complemented high edge is moved onto
   the result, (v, lo, ¬hi') = ¬(v, ¬lo, hi'). *)
let[@inline] mk_seq man s v lo hi =
  if lo = hi then lo
  else
    let c = hi land 1 in
    (intern_seq man s v (lo lxor c) (hi lxor c) lsl 1) lor c

(* Computed-table probe shared by the three recursions: the cached
   result, or -1 on a miss. *)
let[@inline] seq_lookup man s k1 k2 slot =
  Obs.incr c_ite_calls;
  if man.budget != Budget.unlimited then Budget.tick man.budget;
  if Array.unsafe_get s.ck1 slot = k1 && Array.unsafe_get s.ck2 slot = k2 then begin
    Obs.incr c_ite_hits;
    Array.unsafe_get s.cres slot
  end
  else begin
    Obs.incr c_ite_misses;
    -1
  end

(* The cache may have been resized during the recursion: the slot is
   recomputed against the current mask before storing. *)
let[@inline] seq_store s f g k2 k1 r =
  let slot = mix3 f g k2 land s.cmask in
  Array.unsafe_set s.ck1 slot k1;
  Array.unsafe_set s.ck2 slot k2;
  Array.unsafe_set s.cres slot r

(* f ∧ g. Operands are ordered (f < g) before the cache probe, so both
   argument orders share one entry. *)
let rec and_seq man s f g =
  if f <= 1 then if f = 0 then bfalse else g
  else if g <= 1 then if g = 0 then bfalse else f
  else if f = g then f
  else if f lxor g = 1 then bfalse
  else if f < g then and_step_seq man s f g
  else and_step_seq man s g f

and and_step_seq man s f g =
  let k1 = (f lsl 31) lor g and k2 = tag_and lor (s.cgen lsl 31) in
  let r = seq_lookup man s k1 k2 (mix3 f g k2 land s.cmask) in
  if r >= 0 then r
  else begin
    let nf = f lsr 1 and ng = g lsr 1 and cf = f land 1 and cg = g land 1 in
    let vf = Array.unsafe_get s.var nf and vg = Array.unsafe_get s.var ng in
    let v = imin vf vg in
    let f0 = if vf = v then Array.unsafe_get s.low nf lxor cf else f in
    let f1 = if vf = v then Array.unsafe_get s.high nf lxor cf else f in
    let g0 = if vg = v then Array.unsafe_get s.low ng lxor cg else g in
    let g1 = if vg = v then Array.unsafe_get s.high ng lxor cg else g in
    let r1 = and_seq man s f1 g1 in
    let r0 = and_seq man s f0 g0 in
    let r = mk_seq man s v r0 r1 in
    seq_store s f g k2 k1 r;
    r
  end

(* f ⊕ g = reg(f) ⊕ reg(g) ⊕ parity: the recursion and its cache see
   regular operands only. *)
let rec xor_seq man s f g =
  let p = (f lxor g) land 1 in
  let f = f land lnot 1 and g = g land lnot 1 in
  if f = 0 then g lor p
  else if g = 0 then f lor p
  else if f = g then p
  else if f < g then xor_step_seq man s f g lxor p
  else xor_step_seq man s g f lxor p

and xor_step_seq man s f g =
  let k1 = (f lsl 31) lor g and k2 = tag_xor lor (s.cgen lsl 31) in
  let r = seq_lookup man s k1 k2 (mix3 f g k2 land s.cmask) in
  if r >= 0 then r
  else begin
    let nf = f lsr 1 and ng = g lsr 1 in
    let vf = Array.unsafe_get s.var nf and vg = Array.unsafe_get s.var ng in
    let v = imin vf vg in
    let f0 = if vf = v then Array.unsafe_get s.low nf else f in
    let f1 = if vf = v then Array.unsafe_get s.high nf else f in
    let g0 = if vg = v then Array.unsafe_get s.low ng else g in
    let g1 = if vg = v then Array.unsafe_get s.high ng else g in
    let r1 = xor_seq man s f1 g1 in
    let r0 = xor_seq man s f0 g0 in
    let r = mk_seq man s v r0 r1 in
    seq_store s f g k2 k1 r;
    r
  end

(* ite(f, g, h) reduced to a standard triple: g and h are simplified
   against f (g = f → 1, h = ¬f → 1, ...), the two-operand forms go to
   the AND/XOR recursions, and the general case is made f-regular
   (swapping g and h) and g-regular (complementing g, h and the
   result). *)
let rec ite_seq man s f g h =
  if f <= 1 then if f = 1 then g else h
  else begin
    let g = if g lxor f <= 1 then g lxor f lxor 1 else g in
    let h = if h lxor f <= 1 then h lxor f else h in
    if g = h then g
    else if g <= 1 then
      if g = 1 then and_seq man s (f lxor 1) (h lxor 1) lxor 1
      else and_seq man s (f lxor 1) h
    else if h <= 1 then
      if h = 0 then and_seq man s f g else and_seq man s f (g lxor 1) lxor 1
    else if g lxor h = 1 then xor_seq man s f h
    else if f land 1 = 1 then
      let c = h land 1 in
      ite_step_seq man s (f lxor 1) (h lxor c) (g lxor c) lxor c
    else
      let c = g land 1 in
      ite_step_seq man s f (g lxor c) (h lxor c) lxor c
  end

(* f, g regular; f, g, h non-constant. *)
and ite_step_seq man s f g h =
  let k1 = (f lsl 31) lor g and k2 = (s.cgen lsl 31) lor h in
  let r = seq_lookup man s k1 k2 (mix3 f g k2 land s.cmask) in
  if r >= 0 then r
  else begin
    let nf = f lsr 1 and ng = g lsr 1 and nh = h lsr 1 and ch = h land 1 in
    let vf = Array.unsafe_get s.var nf
    and vg = Array.unsafe_get s.var ng
    and vh = Array.unsafe_get s.var nh in
    let v = imin vf (imin vg vh) in
    let f0 = if vf = v then Array.unsafe_get s.low nf else f in
    let f1 = if vf = v then Array.unsafe_get s.high nf else f in
    let g0 = if vg = v then Array.unsafe_get s.low ng else g in
    let g1 = if vg = v then Array.unsafe_get s.high ng else g in
    let h0 = if vh = v then Array.unsafe_get s.low nh lxor ch else h in
    let h1 = if vh = v then Array.unsafe_get s.high nh lxor ch else h in
    let r1 = ite_seq man s f1 g1 h1 in
    let r0 = ite_seq man s f0 g0 h0 in
    let r = mk_seq man s v r0 r1 in
    seq_store s f g k2 k1 r;
    r
  end

(* ---------- shared mk: locked stripes ---------- *)

(* Double one stripe and reinsert its nodes: the reinsert loop of
   [unique_rehash], run over the stripe's own slots. The caller holds
   the stripe lock, which is also the only way any domain reads the
   slots, so no reader can see the old table after the swap or a
   half-filled new one. The new table is a plain [int array]: building
   it allocates no young block, so it never forces a minor collection. *)
let sh_grow_stripe h st =
  Obs.incr c_unique_rehash;
  Obs.instant "bdd.unique.rehash";
  let src = st.st_slots in
  let mask' = (Array.length src * 2) - 1 in
  let dst = Array.make (mask' + 1) 0 in
  for k = 0 to Array.length src - 1 do
    let n = Array.unsafe_get src k in
    if n <> 0 then begin
      let j = ref (mix3 (sh_var h n) (sh_low h n) (sh_high h n) land mask') in
      while Array.unsafe_get dst !j <> 0 do
        j := (!j + 1) land mask'
      done;
      Array.unsafe_set dst !j n
    end
  done;
  st.st_slots <- dst

(* Take the stripe lock, counting the times it was found held. *)
let[@inline] sh_lock_stripe st =
  if not (Mutex.try_lock st.st_lock) then begin
    Obs.incr c_stripe_waits;
    Mutex.lock st.st_lock
  end

(* Make node id [id] addressable: allocate chunks up to it. Only the
   claiming inserter calls this, under the allocation lock; the
   release store to [limit] publishes the fresh chunk. *)
let sh_ensure h id =
  if id >= Atomic.get h.limit then begin
    Mutex.lock h.alloc_lock;
    while id >= Atomic.get h.limit do
      let lim = Atomic.get h.limit in
      Obs.incr c_grow;
      Obs.instant "bdd.grow";
      h.chunks.(lim lsr chunk_bits) <- Array.make (chunk_nodes * 3) 0;
      Atomic.set h.limit (lim + chunk_nodes)
    done;
    Mutex.unlock h.alloc_lock
  end

let[@inline] sh_stripe_of h hash =
  Array.unsafe_get h.stripes ((hash lsr 45) land (nstripes - 1))

(* [intern_seq] on one stripe; the caller holds its lock. *)
let sh_intern_locked man h st hash v lo hi =
  let tab = st.st_slots in
  let mask = Array.length tab - 1 in
  let i = ref (hash land mask) in
  let n = ref (Array.unsafe_get tab !i) in
  while !n <> 0 && not (sh_var h !n = v && sh_low h !n = lo && sh_high h !n = hi) do
    i := (!i + 1) land mask;
    n := Array.unsafe_get tab !i
  done;
  if !n <> 0 then begin
    Obs.incr c_unique_hits;
    !n
  end
  else begin
    let id = Atomic.fetch_and_add h.next 1 in
    if id >= max_nodes then failwith "Bdd: node limit (2^30) exceeded";
    if man.budget != Budget.unlimited then Budget.check_nodes man.budget (id + 1);
    sh_ensure h id;
    let chunk = Array.unsafe_get h.chunks (id lsr chunk_bits) in
    let base = (id land chunk_mask) * 3 in
    Array.unsafe_set chunk base v;
    Array.unsafe_set chunk (base + 1) lo;
    Array.unsafe_set chunk (base + 2) hi;
    Obs.incr c_unique_inserts;
    Obs.record_max c_nodes_max (id + 1);
    Array.unsafe_set tab !i id;
    st.st_count <- st.st_count + 1;
    if st.st_count * 4 > (mask + 1) * 3 then sh_grow_stripe h st;
    id
  end

(* Find-or-insert of a normalised triple (high regular); returns the
   node id. *)
let intern_shr man h v lo hi =
  let hash = mix3 v lo hi in
  let st = sh_stripe_of h hash in
  sh_lock_stripe st;
  match sh_intern_locked man h st hash v lo hi with
  | id ->
    Mutex.unlock st.st_lock;
    id
  | exception e ->
    (* Budget exhaustion must not leave the stripe locked: other
       workers still drain their cancellation through [mk]. *)
    Mutex.unlock st.st_lock;
    raise e

(* The same normalisation as [mk_seq]: the complement of a high edge
   moves onto the result, so both backends intern identical triples. *)
let[@inline] mk_shr man h v lo hi =
  if lo = hi then lo
  else
    let c = hi land 1 in
    (intern_shr man h v (lo lxor c) (hi lxor c) lsl 1) lor c

(* ---------- per-domain computed cache (shared backend) ---------- *)

(* One direct-mapped cache per domain, reused across shared managers:
   acquiring it for a different manager (or an incompatible size)
   clears or reallocates it. Keys pack exactly as in the sequential
   cache; -1 in ck1 never matches a real key (k1 >= 0).

   The cache starts small and doubles toward the configured
   2^s_cache_bits as the domain accumulates misses: worker domains are
   freshly spawned per parallel run, so a full-size up-front
   allocation (megabytes, zeroed) would be a fixed per-domain tax paid
   before any useful work — measurable milliseconds per worker —
   while short-lived workers never profit from the full size. *)
type dcache = {
  mutable d_owner : int; (* shr uid; 0 = unowned *)
  mutable d_ck1 : int array;
  mutable d_ck2 : int array;
  mutable d_cres : int array;
  mutable d_cmask : int;
  mutable d_misses : int; (* since the last (re)size *)
}

let dcache_initial_bits = 12

let dcache_key =
  Domain.DLS.new_key (fun () ->
      {
        d_owner = 0;
        d_ck1 = [||];
        d_ck2 = [||];
        d_cres = [||];
        d_cmask = -1;
        d_misses = 0;
      })

let dcache_alloc c cap =
  c.d_ck1 <- Array.make cap (-1);
  c.d_ck2 <- Array.make cap 0;
  c.d_cres <- Array.make cap 0;
  c.d_cmask <- cap - 1;
  c.d_misses <- 0

let get_dcache h =
  let c = Domain.DLS.get dcache_key in
  let cap_limit = 1 lsl h.s_cache_bits in
  if c.d_owner <> h.uid then begin
    let have = c.d_cmask + 1 in
    let floor_cap = 1 lsl (min h.s_cache_bits dcache_initial_bits) in
    (* An existing array of acceptable size is kept (cleared), so a
       domain alternating between managers does not thrash the
       allocator. *)
    if have >= floor_cap && have <= cap_limit then begin
      Array.fill c.d_ck1 0 have (-1);
      c.d_misses <- 0
    end
    else dcache_alloc c floor_cap;
    c.d_owner <- h.uid
  end
  else if c.d_misses > (c.d_cmask + 1) * 2 && c.d_cmask + 1 < cap_limit then
    (* Grow between top-level calls only: the shared recursions compute
       each slot against the mask they read, so the cache must not
       resize while a recursion is in flight. Entries are dropped, not
       rehashed — it is a cache. *)
    dcache_alloc c ((c.d_cmask + 1) * 2);
  c

(* ---------- shared apply: the sequential recursions over the chunked
   store and the per-domain cache ---------- *)

(* The per-domain cache never resizes mid-call, so the probe-time slot
   is still valid at store time. Returns -1 on a miss. *)
let[@inline] shr_lookup man c k1 k2 slot =
  Obs.incr c_ite_calls;
  if man.budget != Budget.unlimited then Budget.tick man.budget;
  if Array.unsafe_get c.d_ck1 slot = k1 && Array.unsafe_get c.d_ck2 slot = k2 then begin
    Obs.incr c_ite_hits;
    Array.unsafe_get c.d_cres slot
  end
  else begin
    Obs.incr c_ite_misses;
    c.d_misses <- c.d_misses + 1;
    -1
  end

let[@inline] shr_store c slot k1 k2 r =
  Array.unsafe_set c.d_ck1 slot k1;
  Array.unsafe_set c.d_ck2 slot k2;
  Array.unsafe_set c.d_cres slot r

let rec and_shr man h c gen f g =
  if f <= 1 then if f = 0 then bfalse else g
  else if g <= 1 then if g = 0 then bfalse else f
  else if f = g then f
  else if f lxor g = 1 then bfalse
  else if f < g then and_step_shr man h c gen f g
  else and_step_shr man h c gen g f

and and_step_shr man h c gen f g =
  let k1 = (f lsl 31) lor g and k2 = tag_and lor (gen lsl 31) in
  let slot = mix3 f g k2 land c.d_cmask in
  let r = shr_lookup man c k1 k2 slot in
  if r >= 0 then r
  else begin
    let nf = f lsr 1 and ng = g lsr 1 and cf = f land 1 and cg = g land 1 in
    let vf = sh_var h nf and vg = sh_var h ng in
    let v = imin vf vg in
    let f0 = if vf = v then sh_low h nf lxor cf else f in
    let f1 = if vf = v then sh_high h nf lxor cf else f in
    let g0 = if vg = v then sh_low h ng lxor cg else g in
    let g1 = if vg = v then sh_high h ng lxor cg else g in
    let r1 = and_shr man h c gen f1 g1 in
    let r0 = and_shr man h c gen f0 g0 in
    let r = mk_shr man h v r0 r1 in
    shr_store c slot k1 k2 r;
    r
  end

let rec xor_shr man h c gen f g =
  let p = (f lxor g) land 1 in
  let f = f land lnot 1 and g = g land lnot 1 in
  if f = 0 then g lor p
  else if g = 0 then f lor p
  else if f = g then p
  else if f < g then xor_step_shr man h c gen f g lxor p
  else xor_step_shr man h c gen g f lxor p

and xor_step_shr man h c gen f g =
  let k1 = (f lsl 31) lor g and k2 = tag_xor lor (gen lsl 31) in
  let slot = mix3 f g k2 land c.d_cmask in
  let r = shr_lookup man c k1 k2 slot in
  if r >= 0 then r
  else begin
    let nf = f lsr 1 and ng = g lsr 1 in
    let vf = sh_var h nf and vg = sh_var h ng in
    let v = imin vf vg in
    let f0 = if vf = v then sh_low h nf else f in
    let f1 = if vf = v then sh_high h nf else f in
    let g0 = if vg = v then sh_low h ng else g in
    let g1 = if vg = v then sh_high h ng else g in
    let r1 = xor_shr man h c gen f1 g1 in
    let r0 = xor_shr man h c gen f0 g0 in
    let r = mk_shr man h v r0 r1 in
    shr_store c slot k1 k2 r;
    r
  end

let rec ite_shr man h c gen f g hh =
  if f <= 1 then if f = 1 then g else hh
  else begin
    let g = if g lxor f <= 1 then g lxor f lxor 1 else g in
    let hh = if hh lxor f <= 1 then hh lxor f else hh in
    if g = hh then g
    else if g <= 1 then
      if g = 1 then and_shr man h c gen (f lxor 1) (hh lxor 1) lxor 1
      else and_shr man h c gen (f lxor 1) hh
    else if hh <= 1 then
      if hh = 0 then and_shr man h c gen f g
      else and_shr man h c gen f (g lxor 1) lxor 1
    else if g lxor hh = 1 then xor_shr man h c gen f hh
    else if f land 1 = 1 then
      let p = hh land 1 in
      ite_step_shr man h c gen (f lxor 1) (hh lxor p) (g lxor p) lxor p
    else
      let p = g land 1 in
      ite_step_shr man h c gen f (g lxor p) (hh lxor p) lxor p
  end

and ite_step_shr man h c gen f g hh =
  let k1 = (f lsl 31) lor g and k2 = (gen lsl 31) lor hh in
  let slot = mix3 f g k2 land c.d_cmask in
  let r = shr_lookup man c k1 k2 slot in
  if r >= 0 then r
  else begin
    let nf = f lsr 1 and ng = g lsr 1 and nh = hh lsr 1 and ch = hh land 1 in
    let vf = sh_var h nf and vg = sh_var h ng and vh = sh_var h nh in
    let v = imin vf (imin vg vh) in
    let f0 = if vf = v then sh_low h nf else f in
    let f1 = if vf = v then sh_high h nf else f in
    let g0 = if vg = v then sh_low h ng else g in
    let g1 = if vg = v then sh_high h ng else g in
    let h0 = if vh = v then sh_low h nh lxor ch else hh in
    let h1 = if vh = v then sh_high h nh lxor ch else hh in
    let r1 = ite_shr man h c gen f1 g1 h1 in
    let r0 = ite_shr man h c gen f0 g0 h0 in
    let r = mk_shr man h v r0 r1 in
    shr_store c slot k1 k2 r;
    r
  end

(* ---------- public mk / apply ---------- *)

let mk man v lo hi =
  match man.tab with Seq s -> mk_seq man s v lo hi | Shr h -> mk_shr man h v lo hi

let ite man f g h =
  match man.tab with
  | Seq s -> ite_seq man s f g h
  | Shr sh -> ite_shr man sh (get_dcache sh) (Atomic.get sh.sgen) f g h

let band man f g =
  match man.tab with
  | Seq s -> and_seq man s f g
  | Shr sh -> and_shr man sh (get_dcache sh) (Atomic.get sh.sgen) f g

let bxor man f g =
  match man.tab with
  | Seq s -> xor_seq man s f g
  | Shr sh -> xor_shr man sh (get_dcache sh) (Atomic.get sh.sgen) f g

let var man v =
  if v < 0 || v >= man.nvars then invalid_arg "Bdd.var: out of range";
  mk man v bfalse btrue

let nvar man v =
  if v < 0 || v >= man.nvars then invalid_arg "Bdd.nvar: out of range";
  mk man v btrue bfalse

let bnot _man f = f lxor 1
let bor man f g = band man (f lxor 1) (g lxor 1) lxor 1
let bnand man f g = band man f g lxor 1
let bnor man f g = band man (f lxor 1) (g lxor 1)
let bxnor man f g = bxor man f g lxor 1
let bimply man f g = band man f (g lxor 1) lxor 1

let band_list man = List.fold_left (band man) btrue
let bor_list man = List.fold_left (bor man) bfalse

let rec eval man f assignment =
  if f = btrue then true
  else if f = bfalse then false
  else if assignment.(ivar man f) then eval man (ihigh man f) assignment
  else eval man (ilow man f) assignment

(* Bit-parallel evaluation: [var_words.(v)] packs variable v across
   patterns, one per bit; the result packs f across the same patterns.
   One memoized walk over the nodes (a complemented edge inverts the
   word) replaces a per-pattern descent. *)
let eval_vec man f var_words =
  if Array.length var_words <> man.nvars then
    invalid_arg "Bdd.eval_vec: wrong number of variable words";
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go f =
    let w = if f < 2 then 0 else node (f land lnot 1) in
    if f land 1 = 1 then lnot w else w
  and node n =
    match Hashtbl.find_opt memo n with
    | Some w -> w
    | None ->
      let vw = var_words.(ivar man n) in
      let hi = go (ihigh man n) in
      let lo = go (ilow man n) in
      let w = vw land hi lor (lnot vw land lo) in
      Hashtbl.add memo n w;
      w
  in
  go f

(* Every published node, in id order, as its regular handle and its
   stored fields (a possibly complemented low edge, a regular high
   edge). In shared mode this is meaningful only at quiescence (no
   concurrent inserts): ids claimed but never published (a budget raise
   between claim and field writes) read as all-zero triples and are
   skipped via lo = hi, which no reduced node can exhibit. *)
let iter_nodes man fn =
  match man.tab with
  | Seq s ->
    for n = 1 to s.n_nodes - 1 do
      fn (n lsl 1) s.var.(n) s.low.(n) s.high.(n)
    done
  | Shr h ->
    let stop = Atomic.get h.next in
    for n = 1 to stop - 1 do
      let lo = sh_low h n and hi = sh_high h n in
      if lo <> hi then fn (n lsl 1) (sh_var h n) lo hi
    done

(* Distinct nodes reachable from [f] (a node and its complement are one
   node), plus the terminal. *)
let size man f =
  let seen = Hashtbl.create 64 in
  let rec walk f =
    let n = f land lnot 1 in
    if not (is_terminal n || Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      walk (ilow man n);
      walk (ihigh man n)
    end
  in
  walk f;
  Hashtbl.length seen + 1

let support man f =
  let seen = Hashtbl.create 64 in
  let vars = Array.make man.nvars false in
  let rec walk f =
    let n = f land lnot 1 in
    if not (is_terminal n || Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      vars.(ivar man n) <- true;
      walk (ilow man n);
      walk (ihigh man n)
    end
  in
  walk f;
  vars

(* Minterm count over all nvars variables, in extended-range arithmetic.
   count(n) counts assignments of variables var(n) .. nvars-1; the root
   result is then scaled by 2^var(root). *)
let satcount man f =
  let memo = Hashtbl.create 64 in
  let rec count n =
    if n = bfalse then Extfloat.zero
    else if n = btrue then Extfloat.one
    else
      match Hashtbl.find_opt memo n with
      | Some c -> c
      | None ->
        let v = ivar man n in
        let branch child = Extfloat.mul_pow2 (count child) (ivar man child - v - 1) in
        let c = Extfloat.add (branch (ilow man n)) (branch (ihigh man n)) in
        Hashtbl.add memo n c;
        c
  in
  if f = bfalse then Extfloat.zero else Extfloat.mul_pow2 (count f) (ivar man f)

(* One satisfying (partial) assignment as (var, value) literals. *)
let any_sat man f =
  if f = bfalse then None
  else begin
    let rec descend n acc =
      if n = btrue then acc
      else if ihigh man n <> bfalse then descend (ihigh man n) ((ivar man n, true) :: acc)
      else descend (ilow man n) ((ivar man n, false) :: acc)
    in
    Some (List.rev (descend f []))
  end

(* Uniformly sample a full minterm of f, weighting branch choice by
   satcount. [rand_float ()] must be uniform in [0,1). *)
let sample_sat man f ~rand_float =
  if f = bfalse then None
  else begin
    let assignment = Array.make man.nvars false in
    let flip v = assignment.(v) <- rand_float () < 0.5 in
    let rec descend n next_var =
      if n = btrue then
        for v = next_var to man.nvars - 1 do
          flip v
        done
      else begin
        let v = ivar man n in
        for u = next_var to v - 1 do
          flip u
        done;
        let c_lo = satcount man (ilow man n) and c_hi = satcount man (ihigh man n) in
        let total = Extfloat.add c_lo c_hi in
        (* P(high) = c_hi / total, computed in extended range. *)
        let p_hi =
          if Extfloat.is_zero c_hi then 0.
          else Extfloat.to_float (Extfloat.div c_hi total)
        in
        let take_hi = rand_float () < p_hi in
        assignment.(v) <- take_hi;
        descend (if take_hi then ihigh man n else ilow man n) (v + 1)
      end
    in
    (* satcount of subnodes counts vars below var(n); using the manager
       satcount keeps results consistent since the 2^k factors cancel in
       the ratio only if both children start at the same depth — they do,
       because both counts are scaled to full nvars here. *)
    descend f 0;
    Some assignment
  end

(* Existential quantification over the variables marked true in [vars]. *)
let exists man vars f =
  let memo = Hashtbl.create 64 in
  let rec ex n =
    if is_terminal n then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let v = ivar man n in
        let lo = ex (ilow man n) and hi = ex (ihigh man n) in
        let r = if vars.(v) then bor man lo hi else mk man v lo hi in
        Hashtbl.add memo n r;
        r
  in
  ex f

let forall man vars f = bnot man (exists man vars (bnot man f))

(* Restrict variable v to a constant. *)
let restrict man f v value =
  let memo = Hashtbl.create 64 in
  let rec go n =
    if is_terminal n || ivar man n > v then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let r =
          if ivar man n = v then if value then ihigh man n else ilow man n
          else mk man (ivar man n) (go (ilow man n)) (go (ihigh man n))
        in
        Hashtbl.add memo n r;
        r
  in
  go f

(* Simultaneous substitution: variable i is replaced by subs.(i). *)
let compose_vec man f subs =
  if Array.length subs <> man.nvars then
    invalid_arg "Bdd.compose_vec: substitution arity mismatch";
  let memo = Hashtbl.create 64 in
  let rec go n =
    if is_terminal n then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let r = ite man subs.(ivar man n) (go (ihigh man n)) (go (ilow man n)) in
        Hashtbl.add memo n r;
        r
  in
  go f

(* A cube over BDD inputs given as function handles: AND of literals with
   each variable v standing for inputs.(v). *)
let cube_with man cube inputs =
  List.fold_left
    (fun acc (v, ph) ->
      let lit = if ph then inputs.(v) else bnot man inputs.(v) in
      band man acc lit)
    btrue (Logic2.Cube.literals cube)

let sop_with man cover inputs =
  List.fold_left
    (fun acc c -> bor man acc (cube_with man c inputs))
    bfalse
    (Logic2.Cover.cubes cover)

(* ---------- compiled cell elaboration ---------- *)

(* A cover over k <= 5 variables has a 2^k-bit truth table, which fits
   one int (a 6-variable table needs 64 bits, one more than an OCaml
   int holds). [cover_with] turns such a table into a straight-line
   program once — a Shannon decomposition that splits, at each level,
   on the variable needing the fewest steps — and replays it per gate, so EO is one XOR, MUX21 one ITE and ND2 one AND
   over complemented handles instead of a fold of ANDs and ORs. Larger
   covers keep the SOP fold. The result is the same handle either way
   (the BDD is canonical); only the number of apply steps differs.

   Program registers hold handles: register 0 is [bfalse], registers
   1..k the inputs, and step i writes register k + 1 + i. Operands are
   literals [(reg lsl 1) lor c] with the handle encoding's complement
   bit, so reading one is [regs.(l lsr 1) lxor (l land 1)]. *)
let compiled_max_vars = 5

type program = {
  p_nvars : int;
  p_code : int array; (* stride 4: opcode, then operand literals a b c *)
  p_out : int; (* literal of the result *)
}

let op_and = 0
let op_xor = 1
let op_ite = 2

(* Truth-table mask of variable v: row j of a table assigns bit v of j. *)
let tt_var_masks = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

let truth_of_cover k cover =
  let full = (1 lsl (1 lsl k)) - 1 in
  List.fold_left
    (fun acc cube ->
      let m = ref full in
      for v = 0 to k - 1 do
        match Logic2.Cube.polarity cube v with
        | Logic2.Cube.Pos -> m := !m land tt_var_masks.(v)
        | Logic2.Cube.Neg -> m := !m land lnot tt_var_masks.(v)
        | Logic2.Cube.Absent -> ()
      done;
      acc lor !m)
    0 (Logic2.Cover.cubes cover)

let compile k tt =
  let full = (1 lsl (1 lsl k)) - 1 in
  let cof t v b =
    let m = tt_var_masks.(v) land full and shift = 1 lsl v in
    if b then
      let c = t land m in
      c lor (c lsr shift)
    else
      let c = t land lnot m in
      c lor (c lsl shift)
  in
  (* Tables that cost no step: constants and (negated) inputs. *)
  let leaf t =
    if t = 0 then Some bfalse
    else if t = full then Some btrue
    else begin
      let r = ref None in
      for v = k - 1 downto 0 do
        let m = tt_var_masks.(v) land full in
        if t = m then r := Some ((v + 1) lsl 1)
        else if t = full lxor m then r := Some (((v + 1) lsl 1) lor 1)
      done;
      !r
    end
  in
  (* Steps to build [t] by Shannon splits, each split one AND (a
     constant cofactor), one XOR (complementary cofactors) or one ITE.
     Negation is free, so t and ¬t share one memo entry. *)
  let costs = Hashtbl.create 64 in
  let rec cost t =
    if leaf t <> None then 0
    else begin
      let key = imin t (full lxor t) in
      match Hashtbl.find_opt costs key with
      | Some c -> c
      | None ->
        let c = split_cost t (best_split t) in
        Hashtbl.add costs key c;
        c
    end
  and split_cost t v =
    let c0 = cof t v false and c1 = cof t v true in
    if c0 = c1 then max_int
    else if c0 = 0 || c0 = full then 1 + cost c1
    else if c1 = 0 || c1 = full || c1 = full lxor c0 then 1 + cost c0
    else 1 + cost c0 + cost c1
  and best_split t =
    let best = ref (-1) and best_cost = ref max_int in
    for v = 0 to k - 1 do
      let c = split_cost t v in
      if c < !best_cost then begin
        best := v;
        best_cost := c
      end
    done;
    !best
  in
  let code = ref [] and nsteps = ref 0 in
  let step op a b c =
    code := c :: b :: a :: op :: !code;
    incr nsteps;
    (k + !nsteps) lsl 1
  in
  (* Emitted sub-tables are reused, in either polarity. *)
  let emitted = Hashtbl.create 16 in
  let rec emit t =
    match leaf t with
    | Some l -> l
    | None -> (
      match Hashtbl.find_opt emitted t with
      | Some l -> l
      | None ->
        let v = best_split t in
        let x = (v + 1) lsl 1 in
        let c0 = cof t v false and c1 = cof t v true in
        let l =
          if c0 = 0 then step op_and x (emit c1) 0
          else if c0 = full then step op_and x (emit c1 lxor 1) 0 lxor 1
          else if c1 = 0 then step op_and (x lxor 1) (emit c0) 0
          else if c1 = full then step op_and (x lxor 1) (emit c0 lxor 1) 0 lxor 1
          else if c1 = full lxor c0 then step op_xor x (emit c0) 0
          else
            let hi = emit c1 in
            let lo = emit c0 in
            step op_ite x hi lo
        in
        Hashtbl.add emitted t l;
        Hashtbl.add emitted (full lxor t) (l lxor 1);
        l)
  in
  let out = emit tt in
  { p_nvars = k; p_code = Array.of_list (List.rev !code); p_out = out }

let run_program man p inputs =
  let code = p.p_code and k = p.p_nvars in
  let regs = Array.make (k + 1 + (Array.length code / 4)) bfalse in
  Array.blit inputs 0 regs 1 k;
  for i = 0 to (Array.length code / 4) - 1 do
    let a = code.((4 * i) + 1) and b = code.((4 * i) + 2) in
    let fa = regs.(a lsr 1) lxor (a land 1) and fb = regs.(b lsr 1) lxor (b land 1) in
    let op = code.(4 * i) in
    regs.(k + 1 + i) <-
      (if op = op_and then band man fa fb
       else if op = op_xor then bxor man fa fb
       else
         let c = code.((4 * i) + 3) in
         ite man fa fb (regs.(c lsr 1) lxor (c land 1)))
  done;
  regs.(p.p_out lsr 1) lxor (p.p_out land 1)

(* Compiled programs by (arity, truth table), one table per domain so
   concurrent elaboration needs no lock. A netlist uses a few dozen
   distinct tables; the bound only guards against adversarial input. *)
let max_programs = 4096

let programs_key : (int, program) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let program_of k tt =
  let memo = Domain.DLS.get programs_key in
  let key = (tt lsl 3) lor k in
  match Hashtbl.find_opt memo key with
  | Some p -> p
  | None ->
    if Hashtbl.length memo >= max_programs then Hashtbl.reset memo;
    let p = compile k tt in
    Hashtbl.add memo key p;
    p

let cover_with man cover inputs =
  let k = Logic2.Cover.num_vars cover in
  if k > compiled_max_vars then sop_with man cover inputs
  else run_program man (program_of k (truth_of_cover k cover)) inputs

(* Direct encodings where cover variable i is BDD variable i. *)
let of_cube man cube =
  cube_with man cube (Array.init man.nvars (fun v -> var man v))

let of_cover man cover =
  cover_with man cover (Array.init man.nvars (fun v -> var man v))
