(** Scheduling primitives for cone-scoped updates.

    An edit dirties a gate; its consequences flow strictly downstream
    (through [Netlist.iter_fanout]) for logic values and one level sideways
    (driver plus fanout of a net) for loading currents. The session visits
    dirty gates in topological order exactly once per propagation, so each
    update costs O(cone), not O(circuit), and a batch that stages several
    edits before one propagation visits each gate at most once. *)

module Worklist : sig
  type t
  (** Priority worklist over dense element ids [0, n). Elements pop in
      increasing priority (topological index); pushing a queued element is a
      no-op, so each element is processed at most once per drain. *)

  val create : priority:int array -> t
  (** [priority.(id)] orders element [id]; the array is captured, not
      copied. *)

  val push : t -> int -> unit
  val pop : t -> int option
end

module Dirty_set : sig
  type t
  (** Deduplicating set of dense ids with O(1) insertion, cleared between
      propagations. *)

  val create : int -> t
  val add : t -> int -> unit
  val iter : (int -> unit) -> t -> unit
  (** Iterates in insertion order; elements [add]ed during iteration are
      visited too. *)

  val clear : t -> unit
end
