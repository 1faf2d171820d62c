(** Persistent run ledger: one JSONL record per CLI invocation.

    When the [EMASK_LEDGER] environment variable names a file, every
    instrumented binary appends one JSON line as it exits: schema tag,
    wall-clock timestamp (epoch + ISO-8601), command name, argv, every
    fact the run {!note}d (circuit hash, jobs, landed tier, runtime,
    ns/run, ...), and the final counter registry. [emask report] diffs
    these trajectories and compares them against BENCH_*.json
    baselines. *)

val env_var : string
(** ["EMASK_LEDGER"]. *)

val path : unit -> string option
(** The ledger file from the environment, if configured non-empty. *)

val enabled : unit -> bool

val iso8601 : float -> string
(** Epoch seconds as ["YYYY-MM-DDThh:mm:ssZ"] (UTC). *)

val note : string -> Obs_json.t -> unit
(** Record one fact about the current run ([circuit], [jobs], [tier],
    [runtime_s], ...). Last value per key wins; order of first notes is
    preserved in the record. Cheap, works with the ledger disabled. *)

val record : ?notes:(string * Obs_json.t) list -> cmd:string -> unit -> Obs_json.t
(** The record that {!append} would write, for tests and embedding.
    With [?notes] the given facts are embedded instead of (and without
    touching) the process-global note store — the thread-safe path for
    concurrent writers such as server worker domains. *)

val append :
  ?path:string -> ?notes:(string * Obs_json.t) list -> cmd:string -> unit -> unit
(** Append one record to [path], defaulting to the [EMASK_LEDGER]
    file; no-op when neither is set. Without [?notes] the global note
    store is consumed and cleared. The rendered line is written with a
    single [Unix.single_write] on an [O_APPEND] descriptor, so records
    from concurrent domains or processes never interleave — every
    ledger line parses. IO failures are reported on stderr but never
    raise — the ledger must not fail the run it describes. *)

val read_file : string -> (Obs_json.t list, string) result
(** Parse a ledger file: one JSON value per non-blank line. *)
