(** Zero-delay logic simulation (step 2 of the Fig-13 algorithm: "propagate
    logic value from primary inputs to primary outputs"). *)

type assignment = Logic.value array
(** One logic value per net. *)

val run : Netlist.t -> Logic.vector -> assignment
(** [run t pattern] assigns [pattern] to the primary inputs (in the order of
    [Netlist.inputs]) and propagates through the circuit. Raises
    [Invalid_argument] on a pattern length mismatch. *)

val run_into : Netlist.t -> Logic.vector -> assignment -> unit
(** [run_into t pattern values] is [run] writing into a caller-provided
    buffer of length [Netlist.net_count t] — callers evaluating many
    patterns (vector averaging, incremental sessions) reuse one scratch
    buffer instead of allocating per pattern. Every slot is overwritten.

    Cost: one read per pin, in topological order, and one truth-table
    lookup per gate ({!Gate.truth}); no allocation beyond one small record
    per call, whatever the gate count. Builds the netlist's topological
    order on the first call (see {!Netlist.warm}). *)

val outputs : Netlist.t -> assignment -> Logic.vector
(** Read back the primary-output values of an assignment. *)

val random_patterns :
  Leakage_numeric.Rng.t -> Netlist.t -> int -> Logic.vector list
(** [random_patterns rng t n] draws [n] uniform input patterns. *)
