(** Per-gate leakage attribution from a solved operating point.

    Components follow the paper's eq. (6) bookkeeping:
    - subthreshold: channel current drawn through each stage's logically-off
      pull network, measured at the transistors adjacent to the stage output
      (so a series stack counts its through-current once);
    - gate: sum of all gate-tunneling magnitudes of the cell's devices (on
      and off);
    - junction BTBT: sum of all junction current magnitudes. *)

type components = {
  isub : float;   (** A *)
  igate : float;  (** A *)
  ibtbt : float;  (** A *)
}

val zero : components
val total : components -> float
val add : components -> components -> components
val scale : float -> components -> components
val pp_components : Format.formatter -> components -> unit
(** Prints in nA. *)

type t = {
  per_gate : components array;  (** indexed by netlist gate id *)
  footer : components;
  (** the MTCMOS sleep transistor's own leakage (zero without power gating);
      in standby its subthreshold current is the surviving leakage path *)
  totals : components;          (** gates plus footer *)
  vdd_current : float;          (** current drawn from the VDD rail, A *)
  gnd_current : float;          (** current into the ground rail, A *)
}

val of_solution : Dc_solver.kernel -> float array -> t
(** [of_solution k x] attributes leakage at the solved voltages [x], every
    transistor evaluated once with the devices [k] compiled (pass the
    kernel the solve ran on). *)

val of_gate :
  ?pin_currents:float array -> Dc_solver.kernel -> float array -> int ->
  components
(** [of_gate k x g] is gate [g]'s leakage at the solved voltages
    [x], read from [g]'s own transistors with the devices [k] compiled:
    the bits of [(of_solution k x).per_gate.(g)]. With [pin_currents], it
    also writes to
    [pin_currents.(p)] the signed current flowing from input pin [p]'s net
    into the cell through every gate terminal tied to that pin (negated,
    the current the cell injects into the net: its loading contribution).
    Scans the transistor list once. *)

val analyze :
  ?device_of_gate:(int -> Leakage_device.Params.t) ->
  ?options:Dc_solver.options ->
  device:Leakage_device.Params.t ->
  temp:float ->
  ?vdd:float ->
  Leakage_circuit.Netlist.t ->
  Leakage_circuit.Logic.vector ->
  t * Dc_solver.result * Flatten.t
(** One-call pipeline: logic-simulate the pattern, flatten, solve
    (Gauss–Seidel), attribute. *)
