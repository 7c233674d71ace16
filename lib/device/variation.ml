module Rng = Leakage_numeric.Rng

type sigmas = {
  sigma_l : float;
  sigma_tox : float;
  sigma_vdd : float;
  sigma_vth_inter : float;
  sigma_vth_intra : float;
}

let paper_sigmas = {
  sigma_l = 0.002;
  sigma_tox = 0.067;
  sigma_vdd = 0.0333;
  sigma_vth_inter = 0.030;
  sigma_vth_intra = 0.030;
}

let with_vth_inter s sigma_vth_inter = { s with sigma_vth_inter }

(* The inter/intra split the variance-propagation layer reports: inter-die
   axes (geometry, supply, die threshold) are fully correlated across the
   gates of one circuit instance; the intra-die threshold axis is drawn
   independently per gate. *)
let inter_only s = { s with sigma_vth_intra = 0.0 }

let intra_only s =
  {
    sigma_l = 0.0;
    sigma_tox = 0.0;
    sigma_vdd = 0.0;
    sigma_vth_inter = 0.0;
    sigma_vth_intra = s.sigma_vth_intra;
  }

type die = {
  dl : float;
  dtox : float;
  dvth : float;
  dvdd : float;
}

let nominal_die = { dl = 0.0; dtox = 0.0; dvth = 0.0; dvdd = 0.0 }

let sample_die rng s = {
  dl = Rng.normal rng ~mean:0.0 ~sigma:s.sigma_l;
  dtox = Rng.normal rng ~mean:0.0 ~sigma:s.sigma_tox;
  dvth = Rng.normal rng ~mean:0.0 ~sigma:s.sigma_vth_inter;
  dvdd = Rng.normal rng ~mean:0.0 ~sigma:s.sigma_vdd;
}

(* [Rng.normal rng ~mean:0.0 ~sigma], bit for bit, written in place. *)
let sample_gate_vth_into rng s dst k =
  Rng.gaussian_into rng dst k;
  dst.(k) <- 0.0 +. (s.sigma_vth_intra *. dst.(k))

let clamp_min lo v = if v < lo then lo else v

(* Extreme negative samples (beyond -this fraction of nominal) are clamped
   so geometry and supply stay physical: [Params.with_length] / [with_tox] /
   [with_vdd] reject non-positive values, and the compact model divides by
   both geometry terms. At the paper's sigmas the clamp sits 12+ standard
   deviations out, so it never distorts the statistics — it only keeps
   pathological tails (and deliberately hostile corner sweeps) finite. *)
let min_geometry_scale = 0.5

let apply_die (d : Params.t) die =
  let floor_of nominal = min_geometry_scale *. nominal in
  let d =
    Params.with_length d (clamp_min (floor_of d.length) (d.length +. die.dl))
  in
  let d = Params.with_tox d (clamp_min (floor_of d.tox) (d.tox +. die.dtox)) in
  let d = Params.with_vth_shift d die.dvth in
  Params.with_vdd d (clamp_min (floor_of d.vdd) (d.vdd +. die.dvdd))

let apply_gate d dvth = Params.with_vth_shift d dvth

type corner = Fast | Typical | Slow

let corner_die s = function
  | Typical -> nominal_die
  | Fast ->
    {
      dl = -3.0 *. s.sigma_l;
      dtox = -3.0 *. s.sigma_tox;
      dvth = -3.0 *. s.sigma_vth_inter;
      dvdd = 3.0 *. s.sigma_vdd;
    }
  | Slow ->
    {
      dl = 3.0 *. s.sigma_l;
      dtox = 3.0 *. s.sigma_tox;
      dvth = 3.0 *. s.sigma_vth_inter;
      dvdd = -3.0 *. s.sigma_vdd;
    }

let corner_device d s c = apply_die d (corner_die s c)
