(** Gate-level → transistor-level expansion for DC solving.

    Every gate instance is expanded through [Gate.decompose] into static-CMOS
    stages; stage internal nets and series-stack nodes become solver
    unknowns. Primary-input nets are ideal voltage sources fixed at the rail
    matching their logic value. The result is the network of
    voltage-controlled current sources that the paper's eq. (1)/(2) writes
    KCL over. *)

type node =
  | Ground
  | Rail
  | Fixed of float    (** ideal source (primary input net) *)
  | Unknown of int    (** solver unknown, densely numbered *)

type network = Pull_up | Pull_down

type sleep_spec = {
  sleep_width : float;  (** footer NMOS width, µm *)
  sleep_on : bool;      (** true = active mode (sleep device conducting) *)
}
(** MTCMOS power gating: every cell's pull-down network returns to a shared
    virtual-ground node instead of the ground rail, and a single wide footer
    NMOS ties that node to ground. In standby ([sleep_on = false]) the
    virtual ground floats up a few hundred millivolts and the circuit-level
    stack effect collapses subthreshold leakage. *)

type transistor = {
  pol : Leakage_device.Params.polarity;
  w : float;
  g : node;
  d : node;
  s : node;
  b : node;
  owner : int;          (** netlist gate id *)
  stage : int;          (** stage index within the owner cell *)
  net_kind : network;
  at_output : bool;     (** has a S/D terminal on the stage output node *)
  gate_pin : int;       (** cell input pin of the gate terminal, -1 if the
                            gate connects to a cell-internal net *)
  gate_logic : bool;    (** logic value at the gate terminal *)
  stage_out_logic : bool; (** logic value of the stage output *)
}

type t = {
  netlist : Leakage_circuit.Netlist.t;
  device_of_gate : int -> Leakage_device.Params.t;
  temp : float;
  vdd : float;
  transistors : transistor array;
  n_unknowns : int;
  net_node : node array;       (** netlist net -> node *)
  initial : float array;       (** logic-derived starting voltages *)
  blocks : int array array;
      (** per netlist gate in topological order: the unknowns that gate owns
          (its output net, cell-internal nets, stack nodes). Unknowns within
          a block are strongly coupled (series stacks); the solver relaxes
          them jointly. *)
  touching : int array array;
      (** per unknown: the transistor terminals attached to it, each as the
          slot [4 * transistor + terminal] with terminals numbered gate 0,
          drain 1, source 2, bulk 3 (the layout of the solver's
          per-transistor current array). The order is the order the
          solver sums a node's KCL residual in. *)
  vgnd : int option;
      (** unknown index of the MTCMOS virtual-ground node, when present *)
}

val flatten :
  ?device_of_gate:(int -> Leakage_device.Params.t) ->
  ?sleep:sleep_spec ->
  device:Leakage_device.Params.t ->
  temp:float ->
  ?vdd:float ->
  Leakage_circuit.Netlist.t ->
  Leakage_circuit.Simulate.assignment ->
  t
(** [flatten ~device ~temp netlist assignment] expands the circuit under the
    given logic assignment. [device_of_gate] overrides the device per gate id
    (Monte-Carlo intra-die variation); [vdd] defaults to [device.vdd];
    [sleep] inserts an MTCMOS footer (see {!sleep_spec}). *)

val virtual_ground : t -> int option
(** The unknown index of the virtual-ground node when the circuit was
    flattened with a [sleep] footer. *)

val node_voltage : t -> float array -> node -> float
(** Resolve a node's voltage given the unknown vector. *)

val unknown_of_net : t -> Leakage_circuit.Netlist.net -> int option
(** The unknown index backing a netlist net ([None] for primary inputs). *)
