(** Typed netlist edits understood by the incremental session.

    Edits never change the netlist's structure (nets, pins, connectivity) —
    only gate attributes and primary-input values. That is exactly the move
    set of the repo's leakage optimizers: sizing sweeps, dual-Vth
    assignment, per-gate library corners and input-vector control. Every
    edit is self-inverting given the prior state, which is what makes the
    session's undo log possible. *)

type t =
  | Resize of int * float
      (** [Resize (gate_id, strength)] — rescale every transistor width of
          the cell. Strength must be positive. *)
  | Retype of int * Leakage_circuit.Gate.kind
      (** [Retype (gate_id, kind)] — swap the cell function; the new kind
          must have the same arity (the edit may change downstream logic
          values, which the session re-simulates through the output cone). *)
  | Relib of int * Leakage_core.Library.t
      (** [Relib (gate_id, lib)] — characterize this gate from a different
          library (dual-Vth, corner). The library must share temperature and
          supply with the session's. *)
  | Set_input of Leakage_circuit.Netlist.net * bool
      (** [Set_input (net, value)] — drive a primary input. *)

val pp : Format.formatter -> t -> unit

val random_resize :
  ?strengths:float array ->
  Leakage_numeric.Rng.t -> Leakage_circuit.Netlist.t -> t
(** A [Resize] of a uniformly chosen gate to a strength drawn from
    [strengths] (default quarter-step palette 0.5–2.0). Drawing from a fixed
    palette keeps the library's characterization cache small, so steady-state
    edit cost measures table lookups, not characterization solves. *)

val random_set_input : Leakage_numeric.Rng.t -> Leakage_circuit.Netlist.t -> t
(** A random value on a uniformly chosen primary input. *)
