(** Loading-effect analysis of a single cell (Figs 5–9).

    LD values follow eq. (3)–(5): the percentage change of each leakage
    component relative to the nominal (zero-injection) operating point, as a
    function of the loading-current magnitude. Loading current is given as a
    magnitude (the paper's x-axes); its sign at the node follows the node's
    logic state — positive into nets at '0', negative at '1' — matching what
    real fanout/sibling gates do. *)

type ld_point = {
  current : float;   (** loading-current magnitude, A *)
  ld_sub : float;    (** percent *)
  ld_gate : float;
  ld_btbt : float;
  ld_total : float;
}

val input_sweep :
  device:Leakage_device.Params.t ->
  temp:float ->
  ?vdd:float ->
  ?pin:int ->
  ?currents:float array ->
  Leakage_circuit.Gate.kind ->
  Leakage_circuit.Logic.vector ->
  ld_point array
(** LD_IN of eq. (3): sweep loading on one input pin (default pin 0;
    default currents 0–3000 nA in 250 nA steps). *)

val output_sweep :
  device:Leakage_device.Params.t ->
  temp:float ->
  ?vdd:float ->
  ?currents:float array ->
  Leakage_circuit.Gate.kind ->
  Leakage_circuit.Logic.vector ->
  ld_point array
(** LD_OUT of eq. (3). *)

val combined :
  device:Leakage_device.Params.t ->
  temp:float ->
  ?vdd:float ->
  input_current:float ->
  output_current:float ->
  Leakage_circuit.Gate.kind ->
  Leakage_circuit.Logic.vector ->
  ld_point
(** LD_ALL of eq. (4): simultaneous loading on every input pin (the same
    magnitude on each) and on the output. [current] in the result reports
    the input magnitude. *)

val temperature_sweep :
  device:Leakage_device.Params.t ->
  ?vdd:float ->
  temps_celsius:float array ->
  input_current:float ->
  output_current:float ->
  Leakage_circuit.Gate.kind ->
  Leakage_circuit.Logic.vector ->
  (float * ld_point) array
(** Fig 9: LD_ALL vs temperature (°C); each point is evaluated against the
    nominal at the same temperature. *)
