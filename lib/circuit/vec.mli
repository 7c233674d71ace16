(** Growable flat buffers of ints and floats: amortized O(1) append, no
    per-element boxing. The elements are [a.(0 .. len - 1)]; slots past
    [len] are capacity. *)

type t = { mutable a : int array; mutable len : int }

val create : int -> t
(** [create n] is an empty buffer with room for [n] elements before its
    first doubling — a size hint, like [Hashtbl.create]'s. *)

val push : t -> int -> unit
val get : t -> int -> int
val set : t -> int -> int -> unit

module Float : sig
  type t = { mutable a : float array; mutable len : int }

  val create : int -> t
  val push : t -> float -> unit
  val get : t -> int -> float
end
