(** The job-parameter table: one entry per parameter that the one-shot
    CLI flags, the [emask client] flags and the daemon's JSON requests
    all carry.

    Each entry names the parameter on both surfaces, holds its default
    and its domain, and parses both spellings of a value against that
    domain with one message shape. The cmdliner arguments ([bin/cli.ml])
    and the protocol codec ({!Serve_protocol}) are built from these
    values, so a default or a domain is written down exactly once. *)

type 'a t = {
  key : string;  (** JSON request field *)
  flags : string list;  (** command-line names, long name first *)
  docv : string;
  doc : string;  (** cmdliner markup *)
  default : 'a option;  (** [None]: unset unless given *)
  domain : string;  (** what a valid value is, e.g. ["must lie in (0, 1]"] *)
  of_string : string -> 'a option;  (** command-line spelling, [None] off-domain *)
  of_json : Obs_json.t -> 'a option;  (** request spelling, [None] off-domain *)
  to_json : 'a -> Obs_json.t;
  to_string : 'a -> string;
}

val theta : float t
(** Target arrival factor; default {!Masking.Synthesis.default_options}. *)

val band : float t
(** Near-critical band; default {!Paths.default_band}. *)

val max_paths : int t
(** Path-enumeration cap; default {!Paths.default_max_paths}. *)

val jobs : int t
(** Worker domains. The default (1) is the daemon's; the CLI resolves an
    absent [--jobs] with [Spcf.Parallel.auto_jobs]. *)

val fail_on : Analysis.Diag.severity t
val algorithm : Spcf.Governed.algorithm t

val timeout : float t
(** Wall-clock budget in seconds; no default. *)

val max_nodes : int t
(** BDD node quota; no default. *)

val parse : 'a t -> string -> ('a, string) result
(** A command-line value, or ["DOCV <domain>, got \"RAW\""]. *)

val decode : 'a t -> Obs_json.t -> ('a, string) result
(** A request value, or ["\"key\" <domain>, got RAW"]. *)
