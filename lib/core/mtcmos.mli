(** MTCMOS (sleep-transistor / power-gating) standby analysis.

    The strongest of the leakage-control techniques the paper's introduction
    motivates: a wide footer NMOS between the logic's virtual ground and the
    true ground rail. Active, it costs a small voltage drop; in standby its
    off-state stack with the whole circuit lets the virtual ground float up
    a few hundred millivolts, collapsing subthreshold leakage — the
    circuit-level form of the stacking effect of §4/[8].

    This analysis is transistor-level only (the Fig-13 tables assume hard
    rails); it drives the full DC solver with the shared virtual-ground
    unknown of [Leakage_spice.Flatten]. *)

type mode_result = {
  leakage : Leakage_spice.Leakage_report.components;
  (** whole-circuit leakage including the footer's own *)
  footer_leakage : Leakage_spice.Leakage_report.components;
  virtual_ground : float;  (** solved virtual-ground voltage, V *)
  converged : bool;
}

type result = {
  ungated : Leakage_spice.Leakage_report.components;
  (** the same circuit without power gating *)
  active : mode_result;    (** footer conducting *)
  standby : mode_result;   (** footer off *)
  standby_reduction_percent : float;
  (** standby vs ungated total *)
  active_overhead_percent : float;
  (** active-mode leakage change caused by the footer (can be negative:
      the small virtual-ground rise adds circuit-level stacking) *)
}

val analyze :
  ?sleep_width:float ->
  device:Leakage_device.Params.t ->
  temp:float ->
  Leakage_circuit.Netlist.t ->
  Leakage_circuit.Logic.vector ->
  result
(** Solve the three operating modes. [sleep_width] defaults to one µm of
    footer width per gate (a typical 1x-area budget). *)
