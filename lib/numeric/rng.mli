(** Deterministic pseudo-random number generation.

    A small, fast, splittable PRNG (SplitMix64) so every experiment in the
    repository is reproducible from a single integer seed, independent of the
    OCaml stdlib [Random] state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal seeds
    produce equal streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. Used to give
    each Monte-Carlo sample / circuit instance its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller; one value per call, cached pair). *)

val gaussian_into : t -> float array -> int -> unit
(** [gaussian_into t dst k] writes {!gaussian}'s next deviate to [dst.(k)]:
    the same stream, and nothing boxed on the way (a float returned from
    another module is boxed). Drawing allocates nothing. *)

val normal : t -> mean:float -> sigma:float -> float
(** Normal deviate with given mean and standard deviation. *)

val bool : t -> bool
(** Fair coin. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
