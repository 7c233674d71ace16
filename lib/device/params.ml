type polarity = Nmos | Pmos

type fet = {
  vth0 : float;
  slope_n : float;
  dibl : float;
  i_spec : float;
  vth_tc : float;
  jg_scale : float;
  jg_ov_mult : float;
  jg_reverse : float;
  jb_scale : float;
}

type t = {
  name : string;
  vdd : float;
  vref : float;
  length : float;
  length_nom : float;
  tox : float;
  tox_nom : float;
  lov : float;
  halo : float;
  alpha_g : float;
  beta_tox : float;
  alpha_b : float;
  k_halo_btbt : float;
  k_halo_vth : float;
  beta_btbt_temp : float;
  tc_gate : float;
  nmos : fet;
  pmos : fet;
}

let fet t = function Nmos -> t.nmos | Pmos -> t.pmos

(* Calibration rationale (numbers asserted by test/test_device.ml).

   D25 (Figs 5-12): an aggressively scaled, subthreshold-dominated device in
   the spirit of 2005-era 25 nm projections. For a minimum inverter
   (Wn = 1 µm, Wp = 2 µm) at 300 K, input '0': Isub ~0.33 µA against
   ~0.23 µA of gate tunneling and ~45 nA of junction BTBT, with on-state
   gate tunneling near 0.5 µA/µm so that half a dozen fanout pins produce
   the ~3 µA loading-current scale of Figs 5/10 and the total-leakage
   loading shift tracks the subthreshold shift as in Fig 5.

   D50 (§2 / Fig 4): the tamer MEDICI-like 50 nm device where gate and BTBT
   leakage sit at or above subthreshold at room temperature and subthreshold
   takes over when hot (Fig 4c).

   In both, PMOS has worse short-channel control (higher n, higher DIBL),
   ~10x weaker tunneling per area (p+ poly barrier), and a stronger
   junction, matching the asymmetries §4 relies on. *)

let nmos_25 = {
  vth0 = 0.11;
  slope_n = 1.40;
  dibl = 0.100;
  i_spec = 1.05e-6;
  vth_tc = -0.4e-3;
  jg_scale = 8.00e-6;
  jg_ov_mult = 3.0;
  jg_reverse = 0.45;
  jb_scale = 45.0e-9;
}

let pmos_25 = {
  vth0 = 0.14;
  slope_n = 1.90;
  dibl = 0.150;
  i_spec = 0.70e-6;
  vth_tc = -0.4e-3;
  jg_scale = 0.80e-6;
  jg_ov_mult = 3.0;
  jg_reverse = 0.45;
  jb_scale = 40.0e-9;
}

let d25 = {
  name = "D25";
  vdd = 0.9;
  vref = 0.9;
  length = 0.025;
  length_nom = 0.025;
  tox = 1.0;
  tox_nom = 1.0;
  lov = 0.005;
  halo = 1.0;
  alpha_g = 3.5;
  beta_tox = 9.0;
  alpha_b = 5.0;
  k_halo_btbt = 2.5;
  k_halo_vth = 0.04;
  beta_btbt_temp = 10.0;
  tc_gate = 3.0e-4;
  nmos = nmos_25;
  pmos = pmos_25;
}

(* The 50 nm device of §2: longer channel, thicker oxide, higher rail; the
   same qualitative component balance with everything a little tamer. *)
let d50 = {
  d25 with
  name = "D50";
  vdd = 1.0;
  vref = 1.0;
  length = 0.05;
  length_nom = 0.05;
  tox = 1.2;
  tox_nom = 1.2;
  lov = 0.008;
  nmos = { nmos_25 with vth0 = 0.24; dibl = 0.08; jg_scale = 4.50e-6;
           jb_scale = 30.0e-9 };
  pmos = { pmos_25 with vth0 = 0.34; dibl = 0.12; jg_scale = 0.45e-6;
           jb_scale = 28.0e-9 };
}

let scale_fet f ~dvth ~jg ~jb =
  { f with
    vth0 = f.vth0 +. dvth;
    jg_scale = f.jg_scale *. jg;
    jb_scale = f.jb_scale *. jb }

let variant name ~dvth ~jg ~jb =
  { d25 with
    name;
    nmos = scale_fet d25.nmos ~dvth ~jg ~jb;
    pmos = scale_fet d25.pmos ~dvth ~jg ~jb }

(* Single-component-dominated variants: one mechanism boosted, the other two
   suppressed, keeping the overall off-state current within a small factor
   of the base device. *)
let d25_s = variant "D25-S" ~dvth:(-0.027) ~jg:0.40 ~jb:0.45
let d25_g = variant "D25-G" ~dvth:0.065 ~jg:2.20 ~jb:0.45
let d25_jn = variant "D25-JN" ~dvth:0.065 ~jg:0.35 ~jb:2.60

let of_name name =
  let fold s =
    String.concat "" (String.split_on_char '-' (String.lowercase_ascii s))
  in
  List.find_opt (fun d -> fold d.name = fold name)
    [ d25; d50; d25_s; d25_g; d25_jn ]

let with_halo d halo =
  if halo <= 0.0 then invalid_arg "Params.with_halo: dose must be positive";
  { d with halo }

let with_tox d tox =
  if tox <= 0.0 then invalid_arg "Params.with_tox: thickness must be positive";
  { d with tox }

let with_length d length =
  if length <= 0.0 then invalid_arg "Params.with_length: length must be positive";
  { d with length }

let with_vth_shift d dvth =
  { d with
    nmos = { d.nmos with vth0 = d.nmos.vth0 +. dvth };
    pmos = { d.pmos with vth0 = d.pmos.vth0 +. dvth } }

let with_vdd d vdd =
  if vdd <= 0.0 then invalid_arg "Params.with_vdd: vdd must be positive";
  { d with vdd }

let pp ppf d =
  Format.fprintf ppf
    "%s: Vdd=%.2fV L=%.3fum Tox=%.2fnm halo=%.2fx (Vthn=%.3f Vthp=%.3f)"
    d.name d.vdd d.length d.tox d.halo d.nmos.vth0 d.pmos.vth0
