(** The 2-bit comparator of the paper's Fig. 2, with the reference SPCF,
    prediction and indicator functions from Sec. 4.2. *)

val network : unit -> Network.t
val mapped : unit -> Mapped.t

val paper_delta : float
(** Critical path delay (7 abstract units: INV = 1, 2-input gate = 2). *)

val paper_target : float
(** Δ_y = 6.3 — speed-paths within 10 % of Δ. *)

val paper_spcf : Logic2.Cover.t
(** Σ_y = !a1 + !a0·b1 over inputs (a0, a1, b0, b1). *)
