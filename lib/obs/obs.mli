(** Lightweight, domain-safe instrumentation: hierarchical spans,
    counters, log-bucketed histograms and timeline (trace) events,
    behind one global on/off switch.

    Probes are designed to be free when observation is disabled: every
    recording entry point first branches on a single mutable bool and
    returns immediately, without allocating or touching the registry.

    {b Domain model.} A [counter]/[histogram] value is an immutable
    {e descriptor} (interned by name); the mutable cells it records
    into are {e per-domain}, allocated lazily in domain-local storage.
    Recording never synchronises between domains. A worker domain ships
    its recordings back as a {!snapshot}; the coordinating domain folds
    them in with {!merge_snapshot} in a deterministic order. Counters
    and histograms only {e register} themselves on their first recording
    in a domain — so after a disabled run the registry is exactly empty.

    Enabled either programmatically ([set_enabled true]) or by setting
    the environment variable [EMASK_OBS] to anything but ["0"] or the
    empty string. *)

val on : unit -> bool
(** Is observation currently enabled? *)

val set_enabled : bool -> unit
(** Toggle collection. Not synchronised: flip it before spawning worker
    domains, not while they run. *)

val debug : unit -> bool
(** Debug-print toggle for ad-hoc tracing ([EMASK_OBS_DEBUG]; the
    legacy [EMASK_GEN_DEBUG] is honoured for compatibility). Distinct
    from [on]: statistics collection does not imply stderr chatter. *)

val now : unit -> float
(** The clock used by every span and by [timed]: monotonic seconds from
    an arbitrary origin (only differences are meaningful, and they can
    never be negative). One code path for all timing, so CLI-reported
    runtimes and span totals agree. *)

(** {2 Counters} *)

type counter

val counter : string -> counter
(** Create (or intern) a counter descriptor. Cheap; a domain's cell does
    not register until first use there. Two calls with the same name
    return descriptors for the same metric. *)

val incr : counter -> unit
val add : counter -> int -> unit

val record_max : counter -> int -> unit
(** High-water-mark gauge: keep the largest value seen. Snapshots merge
    these by [max], not by sum. *)

val counter_value : counter -> int
(** The calling domain's cell (after merges, the merged value). *)

val touch_counter : counter -> unit
(** Force-register the counter in this domain at its current value (0 if
    never recorded), so reports distinguish "instrumented, nothing
    happened" from "not instrumented". No-op when disabled. *)

(** {2 Histograms} *)

type histogram

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record a non-negative sample into log2 buckets: bucket 0 holds 0,
    bucket [i >= 1] holds values in [[2^(i-1), 2^i)]. *)

val touch_histogram : histogram -> unit
(** Force-register an empty histogram in this domain (see
    {!touch_counter}). No-op when disabled. *)

type hist_stats = {
  hn : int;  (** number of samples *)
  hsum : int;
  hmax : int;
  hbuckets : (int * int) list;  (** (bucket lower bound, count), nonzero only *)
}

val histogram_stats : histogram -> hist_stats

(** {2 Spans}

    A span is a node in a tree keyed by name under its parent; entering
    the same name under the same parent accumulates into one node.
    Re-entrant (recursive) entries are counted as calls but only the
    outermost activation contributes wall time. Each domain grows its
    own tree; {!merge_snapshot} grafts a worker's tree under the
    coordinator's currently open span. *)

type span = {
  sname : string;
  mutable calls : int;
  mutable total : float;  (** accumulated seconds over closed activations *)
  mutable children : span list;  (** most recently created first *)
  mutable live : int;  (** currently-open activations (recursion depth) *)
  mutable started : float;  (** start of the outermost open activation *)
}

val enter : string -> unit
val leave : unit -> unit

val with_span : string -> (unit -> 'a) -> 'a
(** [enter]/[leave] around a thunk, exception-safe. When disabled the
    thunk runs directly. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** Like [with_span] but always measures and returns the elapsed
    seconds, even when observation is disabled — for results (such as
    algorithm runtimes) that are part of normal output. *)

(** {2 Trace events (timeline)}

    Tracing is a second, independent switch ([EMASK_TRACE] or
    {!set_trace_enabled}): when both collection and tracing are on,
    every closed span activation appends a complete event and
    {!instant} appends a point event, each stamped in microseconds from
    process start on a single clock shared by all domains. Merged
    worker events keep their timestamps and get their own timeline row
    ([ev_tid]); the coordinating domain is row 0. [Obs_trace] renders
    the buffer in Chrome trace-event JSON. *)

val trace : unit -> bool
val set_trace_enabled : bool -> unit

val instant : string -> unit
(** Append an instant (point-in-time) event — budget walls, fallbacks,
    cache clears. No-op unless tracing is enabled. *)

type trace_event = {
  ev_tid : int;  (** timeline row: 0 = this domain, merges allocate 1.. *)
  ev_kind : [ `Complete | `Instant ];
  ev_name : string;
  ev_ts_us : float;  (** microseconds from process start, >= 0 *)
  ev_dur_us : float;  (** duration ([`Complete]) or 0 ([`Instant]), >= 0 *)
}

val trace_events : unit -> trace_event list
(** This domain's buffered events (own + merged), in emission order. *)

val thread_labels : unit -> (int * string) list
(** Timeline-row labels: [(0, "main")] plus one per merged snapshot. *)

(** {2 Registry} *)

val root : unit -> span
(** The root of the calling domain's span tree. Its [total] is
    meaningless; reporters show its children. *)

val registered_counters : unit -> (string * int) list
(** Counters touched in this domain while enabled, in first-use order
    (merged worker counters register at their merge point). *)

val registered_histograms : unit -> (string * hist_stats) list

val domain_breakdown : unit -> (string * (string * int) list) list
(** Per-domain attribution: for every merged snapshot, its label and
    the counter values that domain recorded, in merge order. Empty for
    sequential runs. *)

val reset : unit -> unit
(** Clear the calling domain's state: span tree, counters, histograms,
    trace events, merge labels. Does not change the enabled flags. *)

(** {2 Snapshots (cross-domain transport)} *)

type snapshot

val export_snapshot : unit -> snapshot
(** Plain-data copy of everything the calling domain recorded. Call it
    as the last thing a worker domain does, and ship the result back
    with the worker's payload. *)

val isolated : (unit -> 'a) -> 'a * snapshot
(** [isolated f] runs [f] in the calling domain under a fresh, empty
    domain-local state, as a spawned worker would, and returns its
    result with the snapshot of what it recorded. The caller's own
    state is restored afterwards, also when [f] raises (its recordings
    are then dropped). Lets a coordinating domain run one worker's
    share itself and merge that share like any other worker's. *)

val merge_snapshot : ?label:string -> snapshot -> unit
(** Fold a worker snapshot into the calling domain: counters sum
    (high-water gauges max), histograms add bucket-wise, the worker's
    span tree is grafted under the currently open span, and its trace
    events are assigned the next free timeline row, labelled [label]
    (default ["worker N"]). Call in a fixed order — worker 0, worker 1,
    ... — so merged registries are deterministic. *)
