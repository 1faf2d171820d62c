(** Reader/writer for the combinational subset of BLIF (.model/.inputs/
    .outputs/.names/.end; single-output on-set or off-set covers).

    Parsing is split in two stages so static analysis can inspect
    ill-formed netlists that the strict elaborator would reject:
    [parse_source] builds a raw, unchecked representation carrying
    source locations, and [elaborate] turns it into an acyclic
    {!Network.t}, raising {!Parse_error} (with [file:line] positions)
    on cycles, undriven or multiply-driven signals, and malformed
    covers. *)

exception Parse_error of string

type loc = { file : string option; line : int }
(** A source position; [line] is 1-based. *)

val loc_to_string : loc -> string

type raw_node = {
  out : string;  (** the signal driven by this [.names] block *)
  ins : string list;  (** fanin signals, in declaration order *)
  rows : (string * char) list;
      (** cover rows: input plane (possibly [""] for constants) and
          output value ['0'] or ['1'] *)
  nloc : loc;  (** position of the [.names] line *)
}

type source = {
  src_file : string option;
  model : string option;
  src_inputs : (string * loc) list;  (** [.inputs], in declaration order *)
  src_outputs : (string * loc) list;  (** [.outputs], in declaration order *)
  nodes : raw_node list;  (** every [.names] block, in file order *)
}
(** A raw netlist: tokenized and shaped, but with no well-formedness
    guarantees — signals may be undriven, multiply driven, or cyclic.
    The static-analysis passes in [lib/analysis] consume this form. *)

val parse_source : ?file:string -> string -> source
(** Raises {!Parse_error} only on token-level problems (unknown
    directives, malformed cover rows, sequential constructs). *)

val read_source : string -> source
(** [parse_source] on a file's contents, recording its name in
    locations. *)

val elaborate : source -> Network.t
(** Strict elaboration; raises {!Parse_error} on any structural
    ill-formedness (undriven, multiply driven — including a [.names]
    block redefining a declared input — cyclic, mixed on/off rows). *)

val parse : string -> Network.t
(** [elaborate (parse_source text)]. *)

val parse_file : string -> Network.t
val to_string : ?model:string -> Network.t -> string
val write_file : ?model:string -> string -> Network.t -> unit
