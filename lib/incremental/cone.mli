(** Scheduling primitives for cone-scoped updates.

    An edit dirties a gate; its consequences flow strictly downstream
    (through [Netlist.iter_fanout]) for logic values and one level sideways
    (driver plus fanout of a net) for loading currents. The session visits
    dirty gates in topological order exactly once per propagation, so each
    update costs O(cone), not O(circuit). *)

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

module Partition : sig
  type cone = {
    gates : int list;  (** every gate the edit's propagation may touch *)
    nets : int list;   (** every net whose value or injection it may touch *)
  }
  (** Over-approximation of an edit's reach, in deterministic discovery
      order. Attribute edits ([Resize]/[Relib]) reach one level — the gate,
      its fan-in nets, and each net's driver and fanout; logic-changing
      edits ([Retype]/[Set_input]) reach the structural downstream closure
      plus that same one-level expansion around every closure gate. *)

  type state = {
    values : Leakage_circuit.Logic.value array;
        (** settled logic value per net, before any edit of the batch *)
    kinds : Leakage_circuit.Gate.kind array;
        (** current kind per gate id (reflecting previously applied edits) *)
  }
  (** Pre-batch settled session state enabling value-aware pruning: the
      downstream descent stops at gates whose output provably cannot flip
      because some stable side input pins it (a controlling 0 into AND/NAND
      or 1 into OR/NOR, or any pinning combination —
      {!Leakage_circuit.Gate.pinned_output}). "Stable" is batch-wide: a pin
      only counts as held at its settled value when no edit in the batch can
      reach it, and gates the batch retypes are never pruned at, so the
      pruned cones remain a sound cover of the batch's joint propagation.
      A pruned gate still joins the cone (its entry and injections can
      change); only the descent past it stops. *)

  val cone : ?state:state -> Leakage_circuit.Netlist.t -> Edit.t -> cone
  (** The reach of one edit on its own — with [?state], pruned as if the
      edit were a one-element batch (a cone inside a larger batch can only
      be larger; use {!cones} for batch context). Raises [Invalid_argument]
      on an out-of-range gate or net id, or on [state] arrays whose lengths
      do not match the netlist. *)

  val cones :
    ?state:state -> Leakage_circuit.Netlist.t -> Edit.t array -> cone array
  (** Per-edit cones sharing one batch-wide pruning context (the may-flip
      net set is the union over all edits). Without [?state] each cone
      equals {!cone} of that edit. *)

  val groups :
    ?state:state -> Leakage_circuit.Netlist.t -> Edit.t array ->
    int array array
  (** [groups_of nl (cones ?state nl edits)]. *)

  val groups_of : Leakage_circuit.Netlist.t -> cone array -> int array array
  (** Partition a batch into groups of edit indices whose cones are
      mutually disjoint (no shared gate, no shared net) across groups —
      computed by union-find over cone overlap. Groups are ordered by their
      first edit in batch order and members keep batch order, so the result
      is a deterministic function of the netlist, the batch as a set, and
      (when pruning) the pre-batch settled state — never of edit order, job
      count, or session-internal scratch. Edits in disjoint groups touch
      disjoint session state, which is what lets
      {!Incremental.apply_batch} run groups on separate domains while
      staying bit-identical to a sequential walk. *)
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
