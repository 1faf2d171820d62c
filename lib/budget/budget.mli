(** Resource budgets with structured exhaustion.

    A budget bounds an expensive computation three ways at once: a
    wall-clock deadline, a ceiling on BDD nodes allocated in a manager,
    and a ceiling on elementary operations (ite calls). Exhaustion is a
    structured [Budget_exceeded] instead of an OOM or a livelock, so
    callers can catch it and degrade — see [Spcf.Governed] and
    [Masking.Synthesis] for the tier ladder that does.

    The [spec]/[t] split separates *what the user asked for* from *a
    running instance*: a [spec] is relative (a timeout in seconds), an
    instance pins the absolute deadline at [instantiate] time. One spec
    can be instantiated repeatedly (fresh deadline each time) or a live
    instance can be [renew]ed (same deadline, fresh operation count) for
    a fallback tier that must finish inside the original wall. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Nodes  (** the BDD node quota was hit *)
  | Ops  (** the operation-count quota was hit *)
  | Cancelled  (** another party cancelled the shared budget *)

exception Budget_exceeded of reason

val reason_to_string : reason -> string

(** {1 External cancellation flags} *)

type flag
(** A shared cancellation handle, decoupled from any one budget
    instance: a spec carrying a flag produces instances whose
    cancellation state {e is} the flag, so one {!trip} stops every
    computation derived from the spec — including fallback tiers
    restarted with {!renew}, which keeps an externally-owned flag
    instead of allocating a fresh one. The multi-tenant server uses one
    flag per request, tripped when the client disconnects. *)

val flag : unit -> flag
val trip : flag -> unit
val tripped : flag -> bool

(** {1 Requests} *)

type spec = {
  timeout : float option;  (** wall-clock seconds, [> 0.] *)
  max_nodes : int option;  (** BDD nodes per manager, [> 0] *)
  max_ops : int option;  (** ite calls per instance, [> 0] *)
  cancel_with : flag option;
      (** external cancellation: instances poll this flag as their own
          cancel state. A spec with only a flag is {e not}
          [is_no_limits] — the ungoverned fast path never polls. *)
}

val no_limits : spec
val is_no_limits : spec -> bool

val read_env : string -> (string -> 'a option) -> string -> 'a option
(** [read_env name parse describe] reads environment variable [name]:
    [None] when unset or blank, else [parse] of the trimmed value. A
    value [parse] rejects raises [Invalid_argument] with a one-line
    message naming [name], [describe] and the raw value. *)

val of_env : unit -> spec
(** Read [EMASK_BUDGET_TIMEOUT], [EMASK_BUDGET_MAX_NODES] and
    [EMASK_BUDGET_MAX_OPS]. Unset or empty variables contribute no
    limit; malformed or non-positive values raise [Invalid_argument]
    with a one-line message naming the variable. *)

val merge : spec -> spec -> spec
(** [merge a b] takes each field from [a] when set, else from [b] —
    command-line flags over environment defaults. *)

val cancelled_by : flag -> spec -> spec
(** [cancelled_by f s] is [s] with its instances cancellable through
    [f]. *)

(** {1 Instances} *)

type t

val unlimited : t
(** The no-op budget: every check is a single physical-equality test.
    [instantiate no_limits == unlimited]. *)

val instantiate : spec -> t
(** Pin the deadline ([now + timeout]) and arm the quotas. *)

val create : ?timeout:float -> ?max_nodes:int -> ?max_ops:int -> unit -> t
(** Shorthand for [instantiate] of an inline spec. *)

val renew : t -> t
(** Same deadline and quotas, fresh operation count and a fresh cancel
    flag — for a fallback tier retried inside the original wall. An
    externally-owned flag ([spec.cancel_with]) is kept, not refreshed:
    a disconnected requester must stop the retry too. *)

val for_worker : t -> t
(** Same deadline and quotas, fresh operation count, but the cancel
    flag is {e shared} with the parent: cancelling any sibling (or the
    parent) stops the whole team cooperatively. *)

val spec_of : t -> spec
(** The remaining budget as a spec: the timeout shrinks to the time
    left on the deadline (clamped at a small positive epsilon), quotas
    carry over unchanged. [spec_of unlimited = no_limits]. *)

(** {1 Checks} *)

val cancel : t -> unit
val cancelled : t -> bool

val exhausted : t -> reason option
(** Non-raising poll of deadline, cancellation and the op quota — for
    driver loops that want to stop between work items. *)

val max_nodes : t -> int
(** The node quota, or [max_int] when unbounded. *)

val check_nodes : t -> int -> unit
(** Raise [Budget_exceeded Nodes] if [n] exceeds the node quota. *)

val tick : t -> unit
(** Count one operation. Raises [Budget_exceeded] when the op quota is
    hit; polls cancellation and the deadline on an amortized schedule
    (every 256 / 1024 ticks) so the hot path stays a couple of integer
    tests. [tick unlimited] is free. *)

val poll : t -> unit
(** Un-amortized checkpoint: raise [Budget_exceeded] immediately on
    cancellation or a passed deadline. For coarse work-unit boundaries
    (one SPCF output per iteration); [poll unlimited] is free. *)
