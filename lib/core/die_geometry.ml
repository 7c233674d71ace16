(* Die-level geometry and supply sensitivities of the analytic σ pass:
   λ and curvature γ of the log die-scale factor ln S_c per axis (gate
   length, oxide thickness, supply) from the jet-valued compact model on
   the reference inverter, and the quadratic model's residual at ±2σ
   against the plain compact model. *)

module Params = Leakage_device.Params
module Model = Leakage_device.Model
module Variation = Leakage_device.Variation
module Jet = Leakage_numeric.Jet

(* [Statistical.die_scale] solves the strength-1 reference inverter
   (Wn = 1, Wp = 2 — [Gate.nmos_width]/[pmos_width] for Stage_inv) at both
   input states and averages the component ratios. Here the same cell is
   evaluated in closed form at rail bias: the solver's output droop is
   microvolts and cancels to first order in the ratio. *)
let ref_wn = 1.0
let ref_wp = 2.0

type axis = Axis_l | Axis_tox | Axis_vdd

let axes = [| Axis_l; Axis_tox; Axis_vdd |]

(* (isub, igate, ibtbt) jets of the rail-biased inverter at one input
   state, seeded on one die axis. *)
let state_jets ~(device : Params.t) ~temp ~vdd ~axis ~input_one =
  let var_if cond v = if cond then Jet.var v else Jet.const v in
  let length = var_if (axis = Axis_l) device.Params.length in
  let tox = var_if (axis = Axis_tox) device.Params.tox in
  let rail = var_if (axis = Axis_vdd) vdd in
  let gnd = Jet.const 0.0 in
  let dvth = Jet.const 0.0 in
  let nbias, pbias =
    if input_one then
      ( { Model.jvg = rail; jvd = gnd; jvs = gnd; jvb = gnd },
        { Model.jvg = rail; jvd = gnd; jvs = rail; jvb = rail } )
    else
      ( { Model.jvg = gnd; jvd = rail; jvs = gnd; jvb = gnd },
        { Model.jvg = gnd; jvd = rail; jvs = rail; jvb = rail } )
  in
  let n =
    Model.components_jet device Params.Nmos ~w:ref_wn ~temp ~length ~tox
      ~dvth nbias
  in
  let p =
    Model.components_jet device Params.Pmos ~w:ref_wp ~temp ~length ~tox
      ~dvth pbias
  in
  (* Off-network transistor at the output carries the subthreshold story:
     input 0 → output high → NMOS off; input 1 → PMOS off. *)
  let isub =
    if input_one then Model.channel_leakage_jet p
    else Model.channel_leakage_jet n
  in
  ( isub,
    Jet.add (Model.gate_leakage_jet n) (Model.gate_leakage_jet p),
    Jet.add (Model.junction_leakage_jet n) (Model.junction_leakage_jet p) )

(* Plain-valued inverter components with the axis displaced by [delta] —
   the truth the linearization check compares against. *)
let state_values ~(device : Params.t) ~temp ~vdd ~input_one =
  let nbias, pbias =
    if input_one then
      ( { Model.vg = vdd; vd = 0.0; vs = 0.0; vb = 0.0 },
        { Model.vg = vdd; vd = 0.0; vs = vdd; vb = vdd } )
    else
      ( { Model.vg = 0.0; vd = vdd; vs = 0.0; vb = 0.0 },
        { Model.vg = 0.0; vd = vdd; vs = vdd; vb = vdd } )
  in
  let n = Model.components device Params.Nmos ~w:ref_wn ~temp nbias in
  let p = Model.components device Params.Pmos ~w:ref_wp ~temp pbias in
  let isub =
    if input_one then Model.channel_leakage p else Model.channel_leakage n
  in
  ( isub,
    Model.gate_leakage n +. Model.gate_leakage p,
    Model.junction_leakage n +. Model.junction_leakage p )

let displaced ~(device : Params.t) ~vdd axis delta =
  match axis with
  | Axis_l -> (Params.with_length device (device.Params.length +. delta), vdd)
  | Axis_tox -> (Params.with_tox device (device.Params.tox +. delta), vdd)
  | Axis_vdd -> (device, vdd +. delta)

type t = {
  g_lam : float array array;  (* axis (3) × component (3): ∂ln S_c/∂δ *)
  g_gam : float array array;  (* axis × component: log-curvature of S_c *)
  g_lin_err : float array;    (* per component: worst |ln S − model| at ±2σ *)
}

let compute ~device ~temp ~vdd ~(sigmas : Variation.sigmas) =
  let g_lam = Array.make_matrix 3 3 0.0 in
  let g_gam = Array.make_matrix 3 3 0.0 in
  let g_lin_err = Array.make 3 0.0 in
  let nominal0 = state_values ~device ~temp ~vdd ~input_one:false in
  let nominal1 = state_values ~device ~temp ~vdd ~input_one:true in
  let ax_sigma =
    [| sigmas.Variation.sigma_l; sigmas.Variation.sigma_tox;
       sigmas.Variation.sigma_vdd |]
  in
  Array.iteri
    (fun ax axis ->
      let j0 = state_jets ~device ~temp ~vdd ~axis ~input_one:false in
      let j1 = state_jets ~device ~temp ~vdd ~axis ~input_one:true in
      let pick (a, b, c) = [| a; b; c |] in
      let j0 = pick j0 and j1 = pick j1 in
      for c = 0 to 2 do
        (* S(δ) = (r0(δ) + r1(δ))/2 with r_v = I_v(δ)/I_v(0):
           λ = S'(0), γ = S''(0) − λ² (log-curvature; S(0) = 1). *)
        let l0 = j0.(c).Jet.d /. j0.(c).Jet.v
        and l1 = j1.(c).Jet.d /. j1.(c).Jet.v in
        let q0 = j0.(c).Jet.dd /. j0.(c).Jet.v
        and q1 = j1.(c).Jet.dd /. j1.(c).Jet.v in
        let lam = 0.5 *. (l0 +. l1) in
        let s2 = 0.5 *. (q0 +. q1) in
        g_lam.(ax).(c) <- lam;
        g_gam.(ax).(c) <- s2 -. (lam *. lam)
      done;
      (* model-vs-truth log residual at ±2σ on this axis *)
      let sigma = ax_sigma.(ax) in
      if sigma > 0.0 then begin
        let residual_at delta =
          let dev', vdd' = displaced ~device ~vdd axis delta in
          let v0 = pick (state_values ~device:dev' ~temp ~vdd:vdd' ~input_one:false) in
          let v1 = pick (state_values ~device:dev' ~temp ~vdd:vdd' ~input_one:true) in
          let n0 = pick nominal0 and n1 = pick nominal1 in
          Array.init 3 (fun c ->
              let s = 0.5 *. ((v0.(c) /. n0.(c)) +. (v1.(c) /. n1.(c))) in
              let modeled =
                (g_lam.(ax).(c) *. delta)
                +. (0.5 *. g_gam.(ax).(c) *. delta *. delta)
              in
              Float.abs (log s -. modeled))
        in
        let up = residual_at (2.0 *. sigma)
        and dn = residual_at (-2.0 *. sigma) in
        for c = 0 to 2 do
          g_lin_err.(c) <-
            Float.max g_lin_err.(c) (Float.max up.(c) dn.(c))
        done
      end)
    axes;
  { g_lam; g_gam; g_lin_err }
