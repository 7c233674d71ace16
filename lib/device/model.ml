type bias = {
  vg : float;
  vd : float;
  vs : float;
  vb : float;
}

type components = {
  ids : float;
  igso : float;
  igdo : float;
  igcs : float;
  igcd : float;
  igb : float;
  ibtbt_d : float;
  ibtbt_s : float;
}

(* Vth roll-off strength vs drawn length: ΔVth = -k_roll*(Lnom/L - 1). *)
let k_roll = 0.12

(* EKV interpolation function F(u) = ln²(1 + exp(u/2)), with the large-u
   branch taken analytically to avoid overflow when the solver probes far
   into strong inversion. *)
let[@inline] ekv_f u =
  let half = u /. 2.0 in
  let l = if half > 40.0 then half else log1p (exp half) in
  l *. l

let[@inline] logistic x =
  if x > 40.0 then 1.0
  else if x < -40.0 then 0.0
  else 1.0 /. (1.0 +. exp (-.x))

(* The bias-independent half of the model for one (device, polarity, width,
   temperature): everything that does not read a terminal voltage, folded
   to the values the per-bias half multiplies by. Each field is an exact
   subexpression of the model with its operations in their order, so
   folding it ahead of time changes no bit. *)
type compiled = {
  reflect : bool;       (* PMOS: reflect voltages, negate currents *)
  vt : float;
  vt3 : float;          (* 3 vt, the inversion-fraction scale *)
  vth_base : float;     (* threshold before the DIBL term *)
  dibl_eff : float;
  slope_n : float;
  ispec_w : float;
  jg_unit : float;
  vref : float;
  alpha_g : float;
  jg_reverse : float;
  a_ov_mult : float;    (* overlap area times its density multiplier *)
  a_ch : float;
  a_igb : float;        (* 0.02 of the channel area *)
  w_jb : float;         (* width times the BTBT density *)
  alpha_b : float;
  exp_b0 : float;       (* the BTBT exponential at zero bias *)
  w_fwd : float;        (* width times the forward-diode saturation *)
}

let compile (d : Params.t) pol ~w ~temp =
  if w <= 0.0 then invalid_arg "Model.components: width must be positive";
  let f = Params.fet d pol in
  let vt = Physics.thermal_voltage temp in
  (* Short-channel severity grows with Tox and shrinking L; halo suppresses
     it (§3 of the paper / Fig 4a-b). *)
  let sce =
    d.tox /. d.tox_nom *. ((d.length_nom /. d.length) ** 2.0) /. d.halo
  in
  let a_ch = w *. d.length in
  (* Junction BTBT, exponential in reverse bias and halo dose; mild increase
     with temperature through bandgap narrowing. *)
  let jb_unit =
    f.jb_scale
    *. exp (d.k_halo_btbt *. (d.halo -. 1.0))
    *. exp (d.beta_btbt_temp
            *. (Physics.bandgap 300.0 -. Physics.bandgap temp))
  in
  {
    reflect = (match pol with Params.Nmos -> false | Params.Pmos -> true);
    vt;
    vt3 = 3.0 *. vt;
    vth_base =
      f.vth0
      +. (d.k_halo_vth *. (d.halo -. 1.0))
      -. (k_roll *. ((d.length_nom /. d.length) -. 1.0))
      +. (f.vth_tc *. (temp -. 300.0));
    dibl_eff = f.dibl *. sce;
    slope_n = f.slope_n;
    ispec_w =
      f.i_spec *. w *. (d.length_nom /. d.length) *. ((temp /. 300.0) ** 0.5);
    jg_unit =
      f.jg_scale
      *. exp (-.d.beta_tox *. (d.tox -. d.tox_nom))
      *. (1.0 +. (d.tc_gate *. (temp -. 300.0)));
    vref = d.vref;
    alpha_g = d.alpha_g;
    jg_reverse = f.jg_reverse;
    a_ov_mult = w *. d.lov *. f.jg_ov_mult;
    a_ch;
    a_igb = 0.02 *. a_ch;
    w_jb = w *. jb_unit;
    alpha_b = d.alpha_b;
    exp_b0 = exp (d.alpha_b *. (0.0 -. d.vref));
    w_fwd = w *. 1e-12;
  }

(* Gate tunneling density, signed with the oxide voltage; reverse-field
   tunneling (gate low) is weaker by jg_reverse. *)
let[@inline] jg_mag k x =
  k.jg_unit *. (x /. k.vref) *. exp (k.alpha_g *. (x -. k.vref))

let[@inline] jg k v =
  if v >= 0.0 then jg_mag k v else -.(k.jg_reverse *. jg_mag k (-.v))

(* Junction current: BTBT under reverse bias, and a tiny forward-diode
   branch that keeps nodes from drifting below the body rail during
   solving. At a zero bias (either sign: [v -. vref] is [-.vref] for
   both) the exponential is the one [compile] took. *)
let[@inline] jb k v =
  if v >= 0.0 then
    k.w_jb *. (v /. k.vref)
    *. (if v = 0.0 then k.exp_b0 else exp (k.alpha_b *. (v -. k.vref)))
  else begin
    let u = -.v /. k.vt in
    let u = if u > 40.0 then 40.0 else u in
    -.(k.w_fwd *. (exp u -. 1.0))
  end

(* All equations in the NMOS frame; PMOS is handled by reflecting terminal
   voltages about 0 and negating the resulting currents. Both halves read
   [b.(0..3)] = vg, vd, vs, vb and write their signed components to [c] in
   {!components} field order; float arrays in and out keep the evaluation
   unboxed. *)
let[@inline] nmos_frame k (b : float array) i =
  if k.reflect then -.b.(i) else b.(i)

let[@inline] put k (c : float array) i v = c.(i) <- (if k.reflect then -.v else v)

(* The threshold under DIBL, which both halves read. *)
let[@inline] threshold k vds = k.vth_base -. (k.dibl_eff *. abs_float vds)

(* Whether two voltages hold the same bits (NaNs aside): equal, and of one
   sign when zero. Then [vg -. vs] and [vg -. vb] are one value. *)
let[@inline] same_bits (x : float) y =
  x = y && (x <> 0.0 || 1.0 /. x = 1.0 /. y)

(* Tunneling half: igso, igdo, igcs, igcd, igb into [c.(1..5)] — everything
   the gate terminal's current sums, four libm calls; three when source
   and bulk hold the same bits, as they do on most transistors (a source
   on its rail), and igb reuses the gate-source density. *)
let eval_tunneling k b c =
  let vg = nmos_frame k b 0 and vd = nmos_frame k b 1
  and vs = nmos_frame k b 2 and vb = nmos_frame k b 3 in
  let vds = vd -. vs in
  let vth = threshold k vds in
  let jg_gs = jg k (vg -. vs) in
  (* Channel tunneling needs an inverted channel; partition drifts toward the
     source as Vds pinches the drain end. *)
  let inv_frac = logistic ((vg -. vs -. vth) /. k.vt3) in
  let igc_total = k.a_ch *. jg_gs *. inv_frac in
  let pd = 0.5 /. (1.0 +. (abs_float vds /. 0.3)) in
  let igcd = igc_total *. pd in
  put k c 1 (k.a_ov_mult *. jg_gs);
  put k c 2 (k.a_ov_mult *. jg k (vg -. vd));
  put k c 3 (igc_total -. igcd);
  put k c 4 igcd;
  put k c 5 (k.a_igb *. (if same_bits vs vb then jg_gs else jg k (vg -. vb)))

(* Channel and junction half: ids, ibtbt_d, ibtbt_s into [c.(0)], [c.(6)]
   and [c.(7)]. *)
let eval_channel k b c =
  let vg = nmos_frame k b 0 and vd = nmos_frame k b 1
  and vs = nmos_frame k b 2 and vb = nmos_frame k b 3 in
  let vth = threshold k (vd -. vs) in
  (* Channel current: bulk-referenced EKV (body effect comes in through the
     bulk reference and slope factor). *)
  let vp = (vg -. vb -. vth) /. k.slope_n in
  let i_f = ekv_f ((vp -. (vs -. vb)) /. k.vt) in
  let i_r = ekv_f ((vp -. (vd -. vb)) /. k.vt) in
  put k c 0 (k.ispec_w *. (i_f -. i_r));
  put k c 6 (jb k (vd -. vb));
  put k c 7 (jb k (vs -. vb))

let eval k b c =
  eval_tunneling k b c;
  eval_channel k b c

(* The current from the gate's net into the gate, into [t.(o)]: the five
   tunneling components of [c], as {!eval_tunneling} writes them, summed
   in one order. Written to an array, not returned, so no caller boxes
   it. *)
let[@inline] gate_current_into (c : float array) (t : float array) o =
  t.(o) <- c.(1) +. c.(2) +. c.(3) +. c.(4) +. c.(5)

(* Currents from the external nets into gate, drain, source and bulk, from
   the eight components of [c] (as {!eval} writes them), into
   [t.(o..o+3)]. *)
let terminals_into (c : float array) (t : float array) o =
  let ids = c.(0) and igso = c.(1) and igdo = c.(2) and igcs = c.(3)
  and igcd = c.(4) and igb = c.(5) and ibtbt_d = c.(6) and ibtbt_s = c.(7) in
  gate_current_into c t o;
  t.(o + 1) <- ids -. igdo -. igcd +. ibtbt_d;
  t.(o + 2) <- -.ids -. igso -. igcs +. ibtbt_s;
  t.(o + 3) <- -.(igb +. ibtbt_d +. ibtbt_s)

let components d pol ~w ~temp { vg; vd; vs; vb } =
  let c = Array.make 8 0.0 in
  eval (compile d pol ~w ~temp) [| vg; vd; vs; vb |] c;
  { ids = c.(0); igso = c.(1); igdo = c.(2); igcs = c.(3); igcd = c.(4);
    igb = c.(5); ibtbt_d = c.(6); ibtbt_s = c.(7) }

let gate_leakage c =
  abs_float c.igso +. abs_float c.igdo +. abs_float c.igcs
  +. abs_float c.igcd +. abs_float c.igb

let junction_leakage c = abs_float c.ibtbt_d +. abs_float c.ibtbt_s

let channel_leakage c = abs_float c.ids

(* ------------------------------------------------------------------ jets *)

(* Jet-valued mirror of [compile] and [eval]: the same formulas evaluated on
   order-2 jets (lib/numeric/jet.ml), seeded on channel length, oxide
   thickness, a rigid threshold shift, or any terminal voltage. This is the
   closed-form derivative source of the variance-propagation layer
   (Sensitivity): first- and second-order log-sensitivities of every leakage
   component come out exact, with no finite-difference step to tune. The
   test suite's finite-difference oracle cross-checks every branch. *)

module Jet = Leakage_numeric.Jet

type bias_jet = {
  jvg : Jet.t;
  jvd : Jet.t;
  jvs : Jet.t;
  jvb : Jet.t;
}

type components_jet = {
  jids : Jet.t;
  jigso : Jet.t;
  jigdo : Jet.t;
  jigcs : Jet.t;
  jigcd : Jet.t;
  jigb : Jet.t;
  jibtbt_d : Jet.t;
  jibtbt_s : Jet.t;
}

let ekv_f_jet (u : Jet.t) =
  let half = Jet.scale 0.5 u in
  let l = if half.Jet.v > 40.0 then half else Jet.log1p (Jet.exp half) in
  Jet.mul l l

let nmos_components_jet (d : Params.t) (f : Params.fet) ~w ~temp
    ~(length : Jet.t) ~(tox : Jet.t) ~(dvth : Jet.t) { jvg; jvd; jvs; jvb } =
  let vt = Physics.thermal_voltage temp in
  let inv_len = Jet.div (Jet.const d.length_nom) length in
  let sce =
    Jet.scale
      (1.0 /. (d.tox_nom *. d.halo))
      (Jet.mul tox (Jet.pow_const inv_len 2.0))
  in
  let dibl_eff = Jet.scale f.dibl sce in
  let vds = Jet.sub jvd jvs in
  let vth =
    (* [Params.with_vth_shift] adds the die shift to vth0 before anything
       else, so the jet seed rides vth0. *)
    let vth0 = Jet.add_const f.vth0 dvth in
    Jet.sub
      (Jet.add_const
         (f.vth_tc *. (temp -. 300.0))
         (Jet.sub
            (Jet.add_const (d.k_halo_vth *. (d.halo -. 1.0)) vth0)
            (Jet.scale k_roll (Jet.add_const (-1.0) inv_len))))
      (Jet.mul dibl_eff (Jet.abs vds))
  in
  let vp = Jet.scale (1.0 /. f.slope_n) (Jet.sub (Jet.sub jvg jvb) vth) in
  let i_f =
    ekv_f_jet (Jet.scale (1.0 /. vt) (Jet.sub vp (Jet.sub jvs jvb)))
  in
  let i_r =
    ekv_f_jet (Jet.scale (1.0 /. vt) (Jet.sub vp (Jet.sub jvd jvb)))
  in
  let ispec_w =
    Jet.scale (f.i_spec *. w *. ((temp /. 300.0) ** 0.5)) inv_len
  in
  let jids = Jet.mul ispec_w (Jet.sub i_f i_r) in
  let jg_unit =
    Jet.scale
      (f.jg_scale *. (1.0 +. (d.tc_gate *. (temp -. 300.0))))
      (Jet.exp (Jet.scale (-.d.beta_tox) (Jet.add_const (-.d.tox_nom) tox)))
  in
  let jg (v : Jet.t) =
    let mag x =
      Jet.mul jg_unit
        (Jet.mul
           (Jet.scale (1.0 /. d.vref) x)
           (Jet.exp (Jet.scale d.alpha_g (Jet.add_const (-.d.vref) x))))
    in
    if v.Jet.v >= 0.0 then mag v
    else Jet.neg (Jet.scale f.jg_reverse (mag (Jet.neg v)))
  in
  let a_ch = Jet.scale w length in
  let jigso = Jet.scale (w *. d.lov *. f.jg_ov_mult) (jg (Jet.sub jvg jvs)) in
  let jigdo = Jet.scale (w *. d.lov *. f.jg_ov_mult) (jg (Jet.sub jvg jvd)) in
  let inv_frac =
    Jet.logistic
      (Jet.scale (1.0 /. (3.0 *. vt)) (Jet.sub (Jet.sub jvg jvs) vth))
  in
  let igc_total = Jet.mul a_ch (Jet.mul (jg (Jet.sub jvg jvs)) inv_frac) in
  let pd =
    Jet.scale 0.5
      (Jet.inv (Jet.add_const 1.0 (Jet.scale (1.0 /. 0.3) (Jet.abs vds))))
  in
  let jigcd = Jet.mul igc_total pd in
  let jigcs = Jet.sub igc_total jigcd in
  let jigb = Jet.scale 0.02 (Jet.mul a_ch (jg (Jet.sub jvg jvb))) in
  let jb_unit =
    f.jb_scale
    *. exp (d.k_halo_btbt *. (d.halo -. 1.0))
    *. exp (d.beta_btbt_temp
            *. (Physics.bandgap 300.0 -. Physics.bandgap temp))
  in
  let jb (v : Jet.t) =
    if v.Jet.v >= 0.0 then
      Jet.scale (w *. jb_unit)
        (Jet.mul
           (Jet.scale (1.0 /. d.vref) v)
           (Jet.exp (Jet.scale d.alpha_b (Jet.add_const (-.d.vref) v))))
    else begin
      let u = Jet.min_const 40.0 (Jet.scale (-1.0 /. vt) v) in
      Jet.neg (Jet.scale (w *. 1e-12) (Jet.add_const (-1.0) (Jet.exp u)))
    end
  in
  let jibtbt_d = jb (Jet.sub jvd jvb) in
  let jibtbt_s = jb (Jet.sub jvs jvb) in
  { jids; jigso; jigdo; jigcs; jigcd; jigb; jibtbt_d; jibtbt_s }

let negate_jet c = {
  jids = Jet.neg c.jids;
  jigso = Jet.neg c.jigso;
  jigdo = Jet.neg c.jigdo;
  jigcs = Jet.neg c.jigcs;
  jigcd = Jet.neg c.jigcd;
  jigb = Jet.neg c.jigb;
  jibtbt_d = Jet.neg c.jibtbt_d;
  jibtbt_s = Jet.neg c.jibtbt_s;
}

let components_jet d pol ~w ~temp ~length ~tox ~dvth (bias : bias_jet) =
  if w <= 0.0 then invalid_arg "Model.components_jet: width must be positive";
  let f = Params.fet d pol in
  match pol with
  | Params.Nmos -> nmos_components_jet d f ~w ~temp ~length ~tox ~dvth bias
  | Params.Pmos ->
    (* Terminal voltages reflect; the rigid threshold shift does not (it
       rides vth0 of both polarities with the same sign, exactly as
       [Params.with_vth_shift] applies it). *)
    let reflected = {
      jvg = Jet.neg bias.jvg;
      jvd = Jet.neg bias.jvd;
      jvs = Jet.neg bias.jvs;
      jvb = Jet.neg bias.jvb;
    } in
    negate_jet (nmos_components_jet d f ~w ~temp ~length ~tox ~dvth reflected)

let gate_leakage_jet c =
  Jet.add
    (Jet.add
       (Jet.add (Jet.add (Jet.abs c.jigso) (Jet.abs c.jigdo))
          (Jet.abs c.jigcs))
       (Jet.abs c.jigcd))
    (Jet.abs c.jigb)

let junction_leakage_jet c = Jet.add (Jet.abs c.jibtbt_d) (Jet.abs c.jibtbt_s)

let channel_leakage_jet c = Jet.abs c.jids

let off_state_leakage d pol ~w ~temp ~vdd =
  let bias =
    match pol with
    | Params.Nmos -> { vg = 0.0; vd = vdd; vs = 0.0; vb = 0.0 }
    | Params.Pmos -> { vg = vdd; vd = 0.0; vs = vdd; vb = vdd }
  in
  let c = components d pol ~w ~temp bias in
  (channel_leakage c, gate_leakage c, junction_leakage c)
