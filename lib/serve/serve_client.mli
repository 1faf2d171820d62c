(** Client-side plumbing for [emask client]: connect to a daemon, ship
    one request, read one response. *)

type endpoint = Unix_sock of string | Tcp of string * int

val connect : endpoint -> Unix.file_descr
(** Raises [Sys_error] (the CLI's IO001 class) when the daemon is not
    reachable. *)

val read_file : string -> string
(** The whole file, as the client ships it (raises [Sys_error]). *)

val circuit_of_spec : string -> Serve_jobs.circuit
(** The CIRCUIT argument, client-side: a readable file is shipped as
    inline text with the path kept as display name; anything else is a
    suite-circuit name the daemon resolves. *)

val roundtrip : endpoint -> Serve_protocol.request -> Serve_protocol.response
(** Connect, send, receive, close. Protocol failures raise
    {!Serve_protocol.Protocol_error}. *)
