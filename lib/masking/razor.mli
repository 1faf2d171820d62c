(** Razor-style double-sampling error detection with replay (Ernst et
    al. [8]) — the baseline the paper positions itself against. The
    model pays a replay penalty per detection and misses transitions
    later than the guard band; masking pays neither cost. *)

type scheme = {
  escaped_rate : float;
  repair_rate : float;
  throughput : float;
  area_overhead_pct : float;
}

type comparison = {
  factor : float;
  raw_error_rate : float;
  razor : scheme;
  masking : scheme;
}

val compare_schemes :
  ?trials:int ->
  ?seed:int ->
  ?guard_band_pct:float ->
  ?replay:float ->
  ?factors:float list ->
  Synthesis.t ->
  comparison list

val pp : Format.formatter -> comparison -> unit
