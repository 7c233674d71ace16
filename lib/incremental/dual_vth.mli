(** Dual-threshold leakage reduction analysis.

    The classic leakage-reduction technique the paper's introduction cites:
    give timing-noncritical gates a high threshold (much less subthreshold
    leakage, slower) and keep the low threshold on critical paths. This
    module evaluates such an assignment with the loading-aware estimator by
    running two characterized libraries side by side, so a high-Vth cell
    also injects less loading current into its neighbours' nets.

    Assignments are evaluated on an {!Incremental} session: the all-low
    state is the baseline and each high-Vth gate is a [Relib] edit, so an
    assignment costs only the cones of its high-Vth gates. Criticality comes from unit-delay slack:
    a gate whose topological level lies within [critical_margin] of the
    longest path keeps the low threshold. *)

type assignment = bool array
(** per gate id: [true] = high threshold. *)

val slack_assignment :
  critical_margin:int -> Leakage_circuit.Netlist.t -> assignment
(** High-Vth wherever the gate's unit-delay depth is more than
    [critical_margin] levels below the circuit's depth along every path
    through it (computed from required times, so a shallow gate feeding the
    critical path stays low-Vth). *)

type evaluation = {
  assignment : assignment;
  n_high : int;
  totals : Leakage_spice.Leakage_report.components;
  (** loading-aware estimate under the assignment *)
  baseline : Leakage_spice.Leakage_report.components;
  (** all-low-Vth estimate *)
  reduction_percent : float;
}

val evaluate :
  low_lib:Leakage_core.Library.t ->
  high_lib:Leakage_core.Library.t ->
  assignment ->
  Leakage_circuit.Netlist.t ->
  Leakage_circuit.Logic.vector ->
  evaluation
(** Estimate total leakage with the given per-gate threshold assignment:
    one session, the assignment applied as one batch of [Relib] edits.
    [high_lib] must be characterized for the high-Vth device at the same
    temperature and supply as [low_lib]. *)

val high_vth_device :
  ?shift:float -> Leakage_device.Params.t -> Leakage_device.Params.t
(** Convenience: the device with its thresholds raised (default +80 mV). *)
