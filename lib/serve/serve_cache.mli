(** The serve daemon's circuit cache: an LRU over loaded (parsed +
    mapped) circuits keyed by content digest, with eco baseline
    snapshots memoized per (circuit, theta, band).

    Keying by the digest of the source text (or the suite name) means
    an edited file is a clean miss — there is no invalidation protocol
    to get wrong. Hits and misses feed the [serve.cache.*] counters in
    {!Serve_metrics}. *)

type t

val create : cap_mb:int -> t
(** A cache holding roughly [cap_mb] MiB of circuits (sizes are
    order-of-magnitude estimates; eviction is least-recently-used and
    always leaves at least one entry). *)

val lookup : t -> Serve_jobs.lookup
(** The [lookup] handed to job runners: LRU hit, or
    {!Serve_jobs.load_entry} (mapping forced) + insert. *)

val with_eco_lock :
  t ->
  Serve_jobs.circuit ->
  (lookup:Serve_jobs.lookup ->
  snapshot_for:Serve_jobs.snapshot_for ->
  'a) ->
  'a
(** Serialize an eco job on its circuit's entry: wraps baseline reuse
    and the manager-mutating recompute. The entry is resolved once and
    pinned — [lookup] and [snapshot_for] passed to the callback always
    answer for that same entry, so the lock held and the manager
    mutated cannot diverge even if the key is evicted and reloaded
    mid-job. Eco jobs on different circuits still run in parallel. *)

val stats : t -> int * int * int
(** [(entries, used_bytes, cap_bytes)]. *)
