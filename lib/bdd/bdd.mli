(** Reduced ordered BDDs with complement edges. Handles are valid only
    with the manager that created them; equal handles denote equal
    functions.

    {b Handle encoding.} A handle is [(node lsl 1) lor c]: bit 0 is the
    complement flag and the remaining bits name a node. Node 0 is the
    only terminal and denotes false, so [bfalse = 0] and [btrue = 1].
    Every other node stores [(var, low, high)] with [low] a possibly
    complemented handle and [high] always regular (even); a handle with
    bit 0 set denotes the negation of its node's function. The encoding
    is canonical, so [bnot] is [lxor 1]: O(1), and it allocates no node.
    Both backends ([create] and [create_shared]) use this encoding.

    {!var_of}, {!low_of} and {!high_of} return the {e cofactors} of a
    handle (complement flag propagated), so code that walks a BDD only
    through them sees the plain ROBDD of the function. {!iter_nodes}
    instead exposes the stored fields. *)

type t = private int
type man

val bfalse : t
val btrue : t

val create : ?cache_bits:int -> nvars:int -> unit -> man
(** [cache_bits] pins the ite computed-table to [2^cache_bits] entries
    and disables its growth — useful for stress-testing eviction; the
    default is an adaptive cache that tracks the unique table. *)

val create_shared : ?cache_bits:int -> nvars:int -> unit -> man
(** A manager whose unique table several domains may grow concurrently:
    handles are stable once returned, equal triples intern to equal
    handles across domains, and every operation of this interface is
    safe to call from any domain. The ite computed cache is per-domain
    ([Domain.DLS]): it starts at 2^12 entries and doubles with use up
    to [2^cache_bits] (default 2^16), so freshly spawned worker
    domains pay no up-front megabyte allocation. A handle handed from
    one domain to another must cross a mutex or
    [Domain.spawn]/[Domain.join] (a racy store is not enough): that
    is what makes the node fields behind it visible. Single-domain use
    is supported but slower than [create]; see DESIGN.md §13. *)

val is_shared : man -> bool

val nvars : man -> int
val num_nodes : man -> int
(** Total nodes allocated in the manager, the terminal included (a
    growth diagnostic). *)

val unique_capacity : man -> int
(** Slots in the open-addressing unique table (a power of two). *)

val cache_capacity : man -> int
(** Entries in the direct-mapped computed table (a power of two); AND,
    XOR and ITE results share it. *)

val set_budget : man -> Budget.t -> unit
(** Govern this manager: node allocation checks the node quota and each
    apply step (AND, XOR or ITE; the steps counted by [bdd.ite.calls])
    ticks the operation/deadline/cancellation budget, raising
    [Budget.Budget_exceeded] on exhaustion. The default is
    [Budget.unlimited], under which every check is a single
    physical-equality test. *)

val budget : man -> Budget.t

val clear_caches : man -> unit
(** Drop every computed-table entry in O(1) (generation bump). The
    node store and unique table are untouched; results of subsequent
    operations are unchanged — only their cost. *)

val var : man -> int -> t
val nvar : man -> int -> t

val var_of : man -> t -> int
(** Top variable of the handle's node; [nvars] for a constant. *)

val low_of : man -> t -> t
(** Negative cofactor with respect to [var_of]: the node's low edge,
    complemented when the handle is. A constant is its own cofactor. *)

val high_of : man -> t -> t
(** Positive cofactor with respect to [var_of], like {!low_of}. *)

val is_terminal : t -> bool

val ite : man -> t -> t -> t -> t
val bnot : man -> t -> t
(** [lxor 1] on the handle: no traversal, no node. *)

val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val bnand : man -> t -> t -> t
val bnor : man -> t -> t -> t
val bxnor : man -> t -> t -> t
val bimply : man -> t -> t -> t
val band_list : man -> t list -> t
val bor_list : man -> t list -> t

val eval : man -> t -> bool array -> bool

val eval_vec : man -> t -> int array -> int
(** Bit-parallel evaluation: word [i] of the argument packs variable
    [i] across up to 62 patterns, one per bit; the result packs the
    function across the same patterns (one memoized DAG walk instead
    of a per-pattern descent). Bits above the patterns supplied are
    unspecified — mask the result. *)

val iter_nodes : man -> (t -> int -> t -> t -> unit) -> unit
(** [iter_nodes man f] calls [f handle var low high] for every interned
    (non-terminal) node, in node order: [handle] is the node's regular
    (even) handle and [low]/[high] are its stored edges — [high] is
    always regular, [low] may be complemented. On a shared manager this
    is meaningful only at quiescence (no concurrent inserts). *)

val size : man -> t -> int
(** Distinct nodes reachable from the root (a node reached through
    both polarities counts once), the terminal included. *)

val support : man -> t -> bool array

val satcount : man -> t -> Extfloat.t
(** Number of satisfying assignments over all manager variables. *)

val any_sat : man -> t -> (int * bool) list option
val sample_sat : man -> t -> rand_float:(unit -> float) -> bool array option
(** Uniform random minterm of the function, or [None] if unsatisfiable. *)

val exists : man -> bool array -> t -> t
val forall : man -> bool array -> t -> t
val restrict : man -> t -> int -> bool -> t
val compose_vec : man -> t -> t array -> t

val cube_with : man -> Logic2.Cube.t -> t array -> t
(** The cube with its variable [v] standing for the function
    [inputs.(v)] — i.e. the cube evaluated on arbitrary signals. *)

val cover_with : man -> Logic2.Cover.t -> t array -> t
(** The cover with its variable [v] standing for [inputs.(v)]. A cover
    of at most 5 variables is compiled once per distinct truth table
    into a short AND/XOR/ITE program and replayed; a larger one is
    folded cube by cube. The handle is the same either way. *)

val of_cube : man -> Logic2.Cube.t -> t
val of_cover : man -> Logic2.Cover.t -> t
