(** Die-level geometry and supply sensitivities of the analytic σ pass
    ({!Sensitivity.analyze}): the log-response of the reference inverter's
    leakage components to a die-wide shift of gate length, oxide thickness
    and supply, as a quadratic in each axis.

    They depend on the device, temperature and supply and on the sigmas'
    σ_L, σ_Tox and σ_VDD alone, so a library computes them once per
    sigma triple ({!Library.die_geometry}). *)

type t = {
  g_lam : float array array;
      (** axis (L, Tox, VDD) × component (sub, gate, BTBT): ∂ln S_c/∂δ *)
  g_gam : float array array;  (** axis × component: log-curvature of S_c *)
  g_lin_err : float array;
      (** per component: worst |ln S − model| at ±2σ over the axes *)
}
(** Read-only: a library hands the same value to every caller. *)

val compute :
  device:Leakage_device.Params.t ->
  temp:float ->
  vdd:float ->
  sigmas:Leakage_device.Variation.sigmas ->
  t
(** Cost: the compact model's jets on both input states of the inverter
    per axis, and for each axis with a positive σ its plain components at
    ±2σ (about 17k minor words in all). *)
