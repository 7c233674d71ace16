(** Single-cell characterization testbench.

    The cell under test has each input pin driven by a reference inverter
    (minimum size, ideal input), so the pin nets have the finite driving
    impedance through which injected loading current becomes a voltage
    shift — the mechanism of §4. The output net is left unloaded; loading on
    any net is emulated by ideal current-source injection. *)

type t = {
  netlist : Leakage_circuit.Netlist.t;
  dut_gate : int;  (** gate id of the cell under test *)
  pin_nets : Leakage_circuit.Netlist.net array; (** DUT input nets *)
  out_net : Leakage_circuit.Netlist.net;
  pattern : Leakage_circuit.Logic.vector;
      (** primary-input pattern that applies the requested vector at the
          DUT pins (drivers invert) *)
}

val make :
  ?strength:float ->
  Leakage_circuit.Gate.kind -> Leakage_circuit.Logic.vector -> t
(** Raises [Invalid_argument] on vector/arity mismatch. [strength] sizes the
    cell under test (reference drivers stay minimum size). *)

type bench
(** A testbench compiled for one (device, temperature, supply): the bench is
    logic-simulated and flattened once and its solver kernel built once;
    every {!solve} re-runs that kernel with only the injections, the start
    voltages and (for a threshold shift) the DUT's devices reset. *)

val compile :
  device:Leakage_device.Params.t ->
  temp:float ->
  ?vdd:float ->
  t ->
  bench

type dut = {
  leakage : Leakage_spice.Leakage_report.components;
      (** leakage of the cell under test only (reference inverters
          excluded) *)
  pin_injection : float array;
      (** per input pin: current the DUT injects into its input net
          (positive raises the net) — the per-pin "gate leakage
          contribution" the Fig-13 algorithm sums over fanout gates *)
}
(** The cell under test at one solved operating point, read from its own
    transistors. *)

val solve :
  ?injections:(Leakage_circuit.Netlist.net * float) list ->
  ?dut_vth_shift:float ->
  bench ->
  dut
(** DC-solve the bench with loading currents injected into the given nets
    (amps, positive into the net) and the DUT's threshold shifted by
    [dut_vth_shift] volts (default 0; the reference inverters keep the
    bench device).
    Injections that are all exactly zero, at zero shift, leave every
    solver input bit-identical to the uninjected solve, so they return the
    bench's nominal point, solved once. Raises [Invalid_argument] on an
    injection into a primary-input net. *)

val isolated_components :
  ?strength:float ->
  device:Leakage_device.Params.t ->
  temp:float ->
  ?vdd:float ->
  Leakage_circuit.Gate.kind ->
  Leakage_circuit.Logic.vector ->
  Leakage_spice.Leakage_report.components
(** Leakage of the cell alone with ideal rail-connected inputs and an
    unloaded output: the paper's L_NOM. *)
