(** Device parameter sets.

    These records play the role the paper's MEDICI-designed 50 nm devices and
    their extracted BSIM4 decks play: a named bundle of compact-model
    parameters from which every leakage component follows. Parameters are
    analytic-model coefficients calibrated so the *relative* behaviour of the
    three leakage mechanisms matches the regime the paper describes (see
    DESIGN.md §2); they are not foundry data. *)

type polarity = Nmos | Pmos

type fet = {
  vth0 : float;       (** zero-bias threshold magnitude at 300 K, V *)
  slope_n : float;    (** subthreshold slope factor n *)
  dibl : float;       (** threshold reduction per volt of |Vds|, V/V *)
  i_spec : float;     (** EKV specific current per µm of width at 300 K, A *)
  vth_tc : float;     (** dVth/dT, V/K (negative for leakier-when-hot) *)
  jg_scale : float;   (** gate-to-channel tunneling density at Vox = Vdd, A/µm² *)
  jg_ov_mult : float; (** overlap-region density multiplier vs channel *)
  jg_reverse : float; (** density multiplier when the oxide field reverses *)
  jb_scale : float;   (** junction BTBT per µm of width at Vrev = Vdd, A/µm *)
}
(** Per-polarity compact-model coefficients. *)

type t = {
  name : string;
  vdd : float;            (** nominal rail, V *)
  vref : float;           (** tunneling-density normalization voltage: the
                              bias at which [jg_scale]/[jb_scale] are quoted.
                              A calibration constant — unlike [vdd] it does
                              not move under supply variation. *)
  length : float;         (** drawn channel length, µm *)
  length_nom : float;     (** nominal length the model was calibrated at, µm *)
  tox : float;            (** oxide thickness, nm *)
  tox_nom : float;        (** calibration oxide thickness, nm *)
  lov : float;            (** gate/S-D overlap length, µm *)
  halo : float;           (** halo (super-halo) dose relative to nominal *)
  alpha_g : float;        (** gate-tunneling exponential slope, 1/V *)
  beta_tox : float;       (** gate-tunneling sensitivity to Tox, 1/nm *)
  alpha_b : float;        (** BTBT exponential slope vs reverse bias, 1/V *)
  k_halo_btbt : float;    (** BTBT dose sensitivity: exp(k*(halo-1)) *)
  k_halo_vth : float;     (** threshold shift per unit relative dose, V *)
  beta_btbt_temp : float; (** BTBT bandgap-narrowing sensitivity, 1/eV *)
  tc_gate : float;        (** linear gate-current temperature slope, 1/K *)
  nmos : fet;
  pmos : fet;
}

val fet : t -> polarity -> fet
(** Select the coefficients for one polarity. *)

val d50 : t
(** 50 nm-class baseline corresponding to the paper's MEDICI device: at 300 K
    the gate and BTBT components are comparable to and slightly above the
    subthreshold component; subthreshold dominates when hot. *)

val d25 : t
(** 25 nm-class device used for the loading-effect figures (Figs 5–9). *)

val d25_s : t
(** Subthreshold-dominated variant (paper's D25-S): same total off-state
    leakage as {!d25} but with the subthreshold share boosted. *)

val d25_g : t
(** Gate-tunneling-dominated variant (D25-G). *)

val d25_jn : t
(** Junction-BTBT-dominated variant (D25-JN). *)

val of_name : string -> t option
(** The named corner among {!d25}, {!d50}, {!d25_s}, {!d25_g} and
    {!d25_jn}, matched against its [name] ignoring case and dashes:
    ["d25-s"], ["D25S"] and ["d25s"] all give {!d25_s}. *)

val with_halo : t -> float -> t
(** [with_halo d h] re-targets the halo dose ([h] relative to nominal);
    raises BTBT, lowers DIBL-driven subthreshold, leaves gate current alone
    (Fig 4a). *)

val with_tox : t -> float -> t
(** [with_tox d tox_nm] changes the oxide thickness: thinner oxide raises
    gate tunneling exponentially and (slightly) improves short-channel
    control (Fig 4b). *)

val with_length : t -> float -> t
(** Change the drawn channel length (Vth roll-off / DIBL worsen as it
    shrinks). *)

val with_vth_shift : t -> float -> t
(** Add a rigid threshold shift to both polarities (process variation). *)

val with_vdd : t -> float -> t

val pp : Format.formatter -> t -> unit
