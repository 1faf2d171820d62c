(** The diagnostics engine of the static-analysis layer: stable check
    codes, severity levels, source locations threaded from the BLIF
    parser, and text / JSON reporters.

    Check-code catalogue (stable identifiers; see DESIGN.md §9):

    - [BLIF001] parse error
    - [NET001] combinational cycle
    - [NET002] undriven signal
    - [NET003] multiply-driven signal
    - [NET004] unused primary input
    - [NET005] dead cone (logic unreachable from any primary output)
    - [NET006] constant-provable gate
    - [NET007] network has no primary outputs
    - [MAP001] internal node without a library cell
    - [STA001] Δ / per-output arrival inconsistency
    - [STA002] arrival-time monotonicity violation
    - [STA003] negative delay or arrival
    - [STA004] topologically-critical output carried only by provably
      false paths
    - [MASK001] masking circuit is intrusive (combined ≠ original)
    - [MASK002] timing-slack contract violated (< 20 % margin)
    - [MASK003] malformed output-mux insertion
    - [MASK004] indicator coverage / prediction-soundness gap
    - [MASK005] masking cover dominated by statically false paths *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string

type code =
  | Parse_error
  | Cycle
  | Undriven
  | Multi_driver
  | Unused_input
  | Dead_cone
  | Const_gate
  | No_outputs
  | Unmapped_gate
  | Sta_delta
  | Sta_monotone
  | Sta_negative
  | Sta_false_path
  | Mask_intrusive
  | Mask_slack
  | Mask_mux
  | Mask_coverage
  | Mask_false_paths

val code_id : code -> string
(** The stable identifier, e.g. ["NET001"]. *)

val code_name : code -> string
(** A short mnemonic, e.g. ["cycle"]. *)

val default_severity : code -> severity

val code_level : code -> string
(** The IR level the check runs at: ["BLIF"], ["Network"] or
    ["Mapped"] — the third column of the README catalogue table. *)

val code_meaning : code -> string
(** One-line meaning — the fourth column of the README catalogue
    table, pinned by a test so docs can't drift. *)

val all_codes : code list

type t = {
  code : code;
  severity : severity;
  loc : Blif.loc option;
  signal : string option;  (** the offending signal / output, if any *)
  message : string;
}

val diag : ?severity:severity -> ?loc:Blif.loc -> ?signal:string -> code -> string -> t
(** [diag code message] with the code's default severity. *)

val compare : t -> t -> int
(** Orders by descending severity, then source position, then code and
    signal — a stable presentation order. *)

val sort : t list -> t list

val count : severity -> t list -> int
val errors : t list -> t list

val exit_code : ?fail_on:severity -> t list -> int
(** The CLI exit-code policy: [2] if any error; [1] if [fail_on] is
    [Warning] (resp. [Info]) and a warning (resp. any diagnostic) is
    present; [0] otherwise. Default [fail_on] is [Error]. *)

val to_string : t -> string
(** One line: ["file.blif:3: error NET001 [cycle] (signal x): ..."]. *)

val summary : t list -> string
(** One line, e.g. ["2 errors, 1 warning"] or ["clean"]. *)

val print : out_channel -> t list -> unit
(** Sorted diagnostics, one per line, followed by the summary line. *)

val to_json : t -> Obs_json.t
val report_json : ?name:string -> t list -> Obs_json.t
(** [{"circuit": name?, "diagnostics": [...], "summary": {"errors": n,
    "warnings": n, "infos": n}}]. *)
