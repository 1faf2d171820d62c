(** Gate-level circuits: Boolean networks whose internal nodes are
    instances of library cells. *)

type t

val create : unit -> t
val network : t -> Network.t
val add_input : t -> string -> Network.signal
val fresh_name : t -> string -> string

val add_gate :
  t -> ?name:string -> Cell.t -> Network.signal array -> Network.signal

val mark_output : t -> ?name:string -> Network.signal -> unit
val cell_of : t -> Network.signal -> Cell.t option
val gate_count : t -> int
val area : t -> float

val loads : t -> float array
(** Capacitive load per signal (fanout pin caps + primary-output load). *)

val append : t -> prefix:string -> t -> int array
(** [append dst ~prefix src] copies every gate of [src] into [dst],
    matching primary inputs by name (they must exist in [dst]) and
    prefixing internal names. Returns the src→dst signal map. *)

val pp : Format.formatter -> t -> unit
