(** The [emask serve] daemon: masking analysis as a persistent
    service.

    One accept loop (the calling thread) admits connections to a
    bounded queue drained by a pool of worker domains; a full queue is
    answered with a structured rejection at accept time. Each job owns
    a per-request {!Budget.flag} that watcher threads trip on client
    disconnect — while it waits in the queue as well as while it runs,
    so an abandoned request is dropped, not computed. Cancellation is
    cooperative, surfacing as [Budget_exceeded Cancelled] at the job's
    next budget poll. Results
    are rendered by the same {!Serve_jobs} runners the one-shot CLI
    uses, so responses are byte-identical to CLI output. A connection
    whose first bytes are ["GET "] is served as a plain-HTTP
    [/metrics] scrape ({!Obs_prom} exposition of the
    {!Serve_metrics} counters). *)

type bind = Unix_sock of string | Tcp of string * int

type config = {
  bind : bind;
  jobs : int;  (** worker domains *)
  queue_cap : int;  (** bounded admission queue *)
  cache_mb : int;  (** circuit LRU capacity *)
  default_budget : Budget.spec;
      (** merged under every request's own budget (request wins) *)
  ledger : string option;  (** per-request JSONL records, appended here *)
  read_timeout : float;
      (** SO_RCVTIMEO on accepted sockets, in seconds: a client that
          connects and never finishes its request costs at most this
          long on the accept thread before being dropped — without it,
          one silent connection would block all admission (and
          [/metrics] scrapes) indefinitely *)
  verbose : bool;
}

val default_config : config
(** TCP on 127.0.0.1:9309, 2 workers, queue 16, 256 MiB cache, no
    budget, no ledger, 10 s request-read timeout. *)

val run_request :
  note:Serve_jobs.note ->
  ?out:string ->
  ?snapshot_for:Serve_jobs.snapshot_for ->
  lookup:Serve_jobs.lookup ->
  budget:(Budget.spec -> Budget.spec) ->
  Buffer.t ->
  Serve_protocol.request ->
  int
(** Run one analysis request ([lint], [spcf], [paths], [protect] or
    [eco]) through its {!Serve_jobs} runner, rendering into the buffer
    and returning the exit code: the one dispatcher behind both the
    one-shot CLI and the daemon's workers. [budget] finishes each
    request's budget spec (the daemon merges its default and the
    disconnect flag in). Raises [Invalid_argument] on [ping],
    [metrics] and [shutdown]. *)

val run : ?ready:(int -> unit) -> config -> unit
(** Serve until a [shutdown] request. [ready] fires once the socket is
    listening, with the bound TCP port (0 for Unix sockets) — port 0
    in the config asks the kernel to pick one. *)
