(** Process-parameter variation sampling (§5.3 / Figs 10–11).

    The paper applies random variation to channel length, oxide thickness and
    threshold voltage of individual transistors (intra-die) plus die-to-die
    (inter-die) threshold and supply variation. We sample a die-level shift
    shared by every gate of a circuit instance, and a per-gate shift applied
    on top (per-gate rather than per-transistor granularity; the loading
    statistics only need gate-to-gate decorrelation). *)

type sigmas = {
  sigma_l : float;         (** channel length, µm *)
  sigma_tox : float;       (** oxide thickness, nm *)
  sigma_vdd : float;       (** supply, V *)
  sigma_vth_inter : float; (** die-to-die threshold, V *)
  sigma_vth_intra : float; (** within-die threshold, V *)
}

val paper_sigmas : sigmas
(** Fig 11 legend values: σL = 2 nm, σTox = 0.67 Å, σVt-inter = 30 mV,
    σVt-intra = 30 mV, σVDD = 33.3 mV (we read the legend's "333 mV" as a
    typo for 1/27 of the rail; a third of the rail would not leave a working
    die). *)

val with_vth_inter : sigmas -> float -> sigmas
(** Re-target the inter-die threshold sigma (the Fig 11 sweep variable). *)

val inter_only : sigmas -> sigmas
(** The inter-die axes alone (within-die threshold sigma zeroed): geometry,
    supply and die threshold, fully correlated across a circuit's gates.
    This is the split the analytic variance propagation reports as σ_inter. *)

val intra_only : sigmas -> sigmas
(** The within-die threshold axis alone (everything else zeroed):
    independent per gate. Reported as σ_intra. *)

type die = {
  dl : float;
  dtox : float;
  dvth : float;
  dvdd : float;
}
(** One die's parameter shift. *)

val sample_die : Leakage_numeric.Rng.t -> sigmas -> die

val nominal_die : die
(** All-zero shift. *)

val sample_gate_vth : Leakage_numeric.Rng.t -> sigmas -> float
(** Within-die threshold shift for one gate. *)

val min_geometry_scale : float
(** Clamp floor for {!apply_die}: length, oxide thickness and supply never
    drop below this fraction of their nominal value (0.5), keeping extreme
    negative samples physical. At {!paper_sigmas} the floor sits more than
    12σ out, so sampling statistics are unaffected. *)

val apply_die : Params.t -> die -> Params.t
(** Shift a device's parameters by a die sample (supply shift included via
    the device record's [vdd]). Geometry and supply are clamped at
    {!min_geometry_scale} × nominal so the result always satisfies the
    [Params.with_*] positivity checks — [apply_die] never raises, whatever
    the sample. *)

val apply_gate : Params.t -> float -> Params.t
(** Apply a per-gate threshold shift on top. *)

type corner = Fast | Typical | Slow
(** 3-sigma process corners: [Fast] is the leaky corner (short channel, thin
    oxide, low threshold, high supply), [Slow] its opposite. *)

val corner_device : Params.t -> sigmas -> corner -> Params.t
(** [apply_die] of the corner's 3-sigma die shift. *)
