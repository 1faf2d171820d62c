(** Bit-parallel zero-delay logic simulation (62 patterns per word). *)

type t

val prepare : Network.t -> t
val of_mapped : Mapped.t -> t

val eval_word : t -> int array -> int array
(** [eval_word t pi_words] evaluates all signals; [pi_words.(i)] packs the
    i-th primary input across patterns, one per bit. *)

val random_pi_words : t -> Util.Rng.t -> int array

val popcount : int -> int
(** Number of set bits, by a branch-free SWAR reduction. Its domain is
    the non-negative ints (all below 2^62), which is what callers pass:
    pattern words masked to their valid bits. The reduction is in fact
    exact on all 63 bits of any int. *)

val activities : t -> Util.Rng.t -> rounds:int -> float array
(** Per-signal toggle probability. *)
