(** Compact transistor model: every leakage component as a voltage-controlled
    current source (the paper's Fig 3).

    The channel current uses an EKV-style interpolation that is valid from
    deep subthreshold through strong inversion, so the same model both (a)
    produces the subthreshold leakage of off devices and (b) gives on devices
    the finite output conductance that turns injected fanout gate current
    into the millivolt node shifts behind the loading effect. Gate tunneling
    is exponential in oxide voltage and thickness and nearly
    temperature-independent; junction BTBT is exponential in reverse bias and
    halo dose with a weak bandgap-narrowing temperature dependence. *)

type bias = {
  vg : float;
  vd : float;
  vs : float;
  vb : float;
}
(** Absolute terminal voltages in volts. *)

type components = {
  ids : float;      (** channel current, positive drain→source (NMOS frame) *)
  igso : float;     (** gate to source-overlap tunneling *)
  igdo : float;     (** gate to drain-overlap tunneling *)
  igcs : float;     (** gate-to-channel, source-collected part *)
  igcd : float;     (** gate-to-channel, drain-collected part *)
  igb : float;      (** gate to substrate *)
  ibtbt_d : float;  (** drain-body junction BTBT *)
  ibtbt_s : float;  (** source-body junction BTBT *)
}
(** Signed current components in amperes. For a PMOS all signs are reflected;
    use {!abs_components} for magnitude reporting. *)

val components :
  Params.t -> Params.polarity -> w:float -> temp:float -> bias -> components
(** Evaluate all current sources. [w] is the transistor width in µm, [temp]
    the temperature in Kelvin. Runs {!compile} then {!eval}: the device
    formulas exist once. *)

(** {2 Evaluation kernel}

    The model split into its bias-independent and per-bias halves, for the
    DC solver's inner loop. {!compile} folds everything that does not read
    a terminal voltage (thermal voltage, DIBL factor, threshold base,
    specific current, tunneling and BTBT densities, area products) once per
    (device, polarity, width, temperature); {!eval} reads four voltages from
    a float array and writes the eight components to another, allocating
    nothing. The split keeps every operation and its order, so [eval]
    writes the bits of {!components}; the oxide term
    [jg (vg - vs)], which two components share, is evaluated once.

    {!eval} runs two halves, each reading the four voltages itself: the
    tunneling half ({!eval_tunneling}: the five gate-tunneling components,
    4 of the model's 10 libm calls) and the channel/junction half (channel
    current and both junction currents). The gate terminal's current reads
    the tunneling half alone, so a caller that needs only
    {!gate_current_into} runs only {!eval_tunneling} and gets the same
    bits.

    The DC solver ({!Leakage_spice.Dc_solver}) shares one compiled record
    among all transistors with the same key, keeps each transistor's four
    terminal currents, and reuses them for every node the transistor
    touches: a device is evaluated when one of its voltages may have
    moved, not once per terminal. *)

type compiled

val compile :
  Params.t -> Params.polarity -> w:float -> temp:float -> compiled
(** Raises [Invalid_argument] when [w] is not positive, like
    {!components}. *)

val eval : compiled -> float array -> float array -> unit
(** [eval k b c] reads [b.(0..3)] = vg, vd, vs, vb and writes the signed
    components to [c.(0..7)] in {!components} field order (ids, igso,
    igdo, igcs, igcd, igb, ibtbt_d, ibtbt_s). *)

val eval_tunneling : compiled -> float array -> float array -> unit
(** The tunneling half of {!eval}: writes igso, igdo, igcs, igcd and igb to
    [c.(1..5)], the bits {!eval} writes there, and leaves [c.(0)],
    [c.(6)] and [c.(7)] alone. *)

val gate_current_into : float array -> float array -> int -> unit
(** [gate_current_into c t o] writes to [t.(o)] the current from the
    gate's net into the gate, from components [c] as {!eval} or
    {!eval_tunneling} writes them: the gate slot {!terminals_into}
    writes. *)

val terminals_into : float array -> float array -> int -> unit
(** [terminals_into c t o] writes the currents flowing from the external
    nets into gate, drain, source and bulk to [t.(o..o+3)] from components
    [c] as {!eval} writes them. They sum to zero (KCL inside the device),
    which the tests assert. *)

val gate_leakage : components -> float
(** Sum of gate-tunneling magnitudes: |Igso| + |Igdo| + |Igcs| + |Igcd| +
    |Igb| (the paper's Igate for one device). *)

val junction_leakage : components -> float
(** |Ibtbt_d| + |Ibtbt_s|. *)

val channel_leakage : components -> float
(** |Ids|: reported as subthreshold leakage when the caller knows the device
    is logically off. *)

val off_state_leakage :
  Params.t -> Params.polarity -> w:float -> temp:float -> vdd:float ->
  float * float * float
(** [(isub, igate, ibtbt)] of an isolated off transistor with its drain at
    the rail — the standard single-device operating point used in Fig 4. *)

(** {2 Jet-valued evaluation (closed-form derivatives)}

    The same compact model evaluated on order-2 jets
    ({!Leakage_numeric.Jet}): seed channel length, oxide thickness, a rigid
    threshold shift or any terminal voltage, and read the exact first and
    second derivative of every current component. This is what the
    variance-propagation layer differentiates; the test suite validates each
    derivative against central finite differences. *)

type bias_jet = {
  jvg : Leakage_numeric.Jet.t;
  jvd : Leakage_numeric.Jet.t;
  jvs : Leakage_numeric.Jet.t;
  jvb : Leakage_numeric.Jet.t;
}

type components_jet = {
  jids : Leakage_numeric.Jet.t;
  jigso : Leakage_numeric.Jet.t;
  jigdo : Leakage_numeric.Jet.t;
  jigcs : Leakage_numeric.Jet.t;
  jigcd : Leakage_numeric.Jet.t;
  jigb : Leakage_numeric.Jet.t;
  jibtbt_d : Leakage_numeric.Jet.t;
  jibtbt_s : Leakage_numeric.Jet.t;
}

val components_jet :
  Params.t -> Params.polarity -> w:float -> temp:float ->
  length:Leakage_numeric.Jet.t -> tox:Leakage_numeric.Jet.t ->
  dvth:Leakage_numeric.Jet.t -> bias_jet -> components_jet
(** Jet-valued {!components}. [length] and [tox] stand in for the device
    record's [length] / [tox] fields (the [*_nom] references stay fixed, as
    under {!Params.with_length} / {!Params.with_tox}); [dvth] is a rigid
    threshold shift of both polarities, as under {!Params.with_vth_shift}.
    With constant seeds the values agree with {!components}. For a PMOS the
    terminal voltages are reflected but [dvth] is not, matching
    [with_vth_shift]. *)

val gate_leakage_jet : components_jet -> Leakage_numeric.Jet.t
(** Jet-valued {!gate_leakage}. *)

val junction_leakage_jet : components_jet -> Leakage_numeric.Jet.t
(** Jet-valued {!junction_leakage}. *)

val channel_leakage_jet : components_jet -> Leakage_numeric.Jet.t
(** Jet-valued {!channel_leakage}. *)
