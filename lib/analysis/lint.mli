(** Standard lint pipelines: compositions of the {!Passes} library used
    by [emask lint] and by the pre-flight checks guarding every
    SPCF / synthesis entry point. *)

val source : Blif.source -> Diag.t list
(** All source-level passes: multi-driver, undriven, cycles, dead
    cones, unused inputs, no-outputs. *)

val network : Network.t -> Diag.t list
(** All network-level passes on an elaborated network: unused inputs,
    dead cones, constant-provable gates, no-outputs. *)

val mapped : ?model:Sta.delay_model -> Mapped.t -> Diag.t list
(** Network-level passes on the underlying network, plus unmapped-gate
    and STA-consistency checks. *)

val masking : ?margin:float -> Masking.Synthesis.t -> Diag.t list
(** The masking-contract checks ({!Contract.check}) plus mapped-level
    lint of the combined circuit. *)

val preflight_source : Blif.source -> Diag.t list
(** The errors among {!source}'s findings, run before elaboration:
    multi-driver, undriven, cycles, no-outputs. Linear in the netlist; anything it
    reports would make {!Blif.elaborate} (and everything downstream)
    fail. *)

val preflight : Network.t -> Diag.t list
(** The cheap error-only subset for already-elaborated networks (the
    structural defects are unrepresentable there, so this reduces to
    the no-outputs check). *)

exception Gate_failed of string
(** A preflight gate tripped; the payload is the one-line summary
    ("WHAT: SUMMARY — run `emask lint` for details"). *)

val gate_check : what:string -> Diag.t list -> unit
(** Raise {!Gate_failed} if [diags] contains errors. The serve daemon
    turns it into a per-request error response; the CLI boundary
    ([bin/cli.ml]) prints the summary to [stderr] and exits with status
    2. *)
