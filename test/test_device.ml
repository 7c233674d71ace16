(* Tests of the compact device models: conservation laws, monotonicities and
   the calibrated regimes the paper's analysis relies on. *)

module Physics = Leakage_device.Physics
module Params = Leakage_device.Params
module Model = Leakage_device.Model
module Variation = Leakage_device.Variation
module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let d25 = Params.d25
let d50 = Params.d50
let vdd = d25.Params.vdd

(* -------------------------------------------------------------- Physics *)

let test_thermal_voltage () =
  check_float ~eps:1e-4 "vT(300K)" 0.02585 (Physics.thermal_voltage 300.0)

let test_thermal_voltage_scales () =
  check_float ~eps:1e-12 "linear in T"
    (2.0 *. Physics.thermal_voltage 300.0)
    (Physics.thermal_voltage 600.0)

let test_bandgap_narrows () =
  Alcotest.(check bool) "Eg shrinks with T" true
    (Physics.bandgap 400.0 < Physics.bandgap 300.0);
  check_float ~eps:0.02 "Eg(300) ~ 1.12 eV" 1.12 (Physics.bandgap 300.0)

let test_celsius_roundtrip () =
  check_float "roundtrip" 85.0
    (Physics.kelvin_to_celsius (Physics.celsius_to_kelvin 85.0))

let test_nanoamps () =
  check_float "A to nA" 5.0 (Physics.amps_to_nanoamps 5e-9)

(* --------------------------------------------------------------- Params *)

let test_fet_selector () =
  Alcotest.(check bool) "nmos" true (Params.fet d25 Params.Nmos == d25.Params.nmos);
  Alcotest.(check bool) "pmos" true (Params.fet d25 Params.Pmos == d25.Params.pmos)

let test_variants_exist () =
  List.iter
    (fun (d : Params.t) ->
      Alcotest.(check bool) ("positive vdd " ^ d.Params.name) true
        (d.Params.vdd > 0.0))
    [ d25; d50; Params.d25_s; Params.d25_g; Params.d25_jn ]

let test_of_name () =
  let name = function Some (d : Params.t) -> d.Params.name | None -> "none" in
  List.iter
    (fun (spelling, want) ->
      Alcotest.(check string) spelling want (name (Params.of_name spelling)))
    [ ("d25", "D25"); ("D50", "D50"); ("d25-s", "D25-S"); ("d25s", "D25-S");
      ("D25S", "D25-S"); ("d25-G", "D25-G"); ("d25jn", "D25-JN");
      ("D25-JN", "D25-JN"); ("d25x", "none"); ("", "none") ]

let test_with_halo_rejects_nonpositive () =
  Alcotest.check_raises "bad halo"
    (Invalid_argument "Params.with_halo: dose must be positive") (fun () ->
      ignore (Params.with_halo d25 0.0))

let test_with_vth_shift () =
  let d = Params.with_vth_shift d25 0.05 in
  check_float "nmos shifted" (d25.Params.nmos.Params.vth0 +. 0.05)
    d.Params.nmos.Params.vth0;
  check_float "pmos shifted" (d25.Params.pmos.Params.vth0 +. 0.05)
    d.Params.pmos.Params.vth0

let test_variant_totals_comparable () =
  let total d =
    let s, g, b = Model.off_state_leakage d Params.Nmos ~w:1.0 ~temp:300.0 ~vdd in
    s +. g +. b
  in
  let base = total d25 in
  List.iter
    (fun d ->
      let r = total d /. base in
      if r < 0.25 || r > 4.0 then
        Alcotest.failf "variant %s total off by %gx" d.Params.name r)
    [ Params.d25_s; Params.d25_g; Params.d25_jn ]

let test_variant_domination () =
  let shares d =
    Model.off_state_leakage d Params.Nmos ~w:1.0 ~temp:300.0 ~vdd
  in
  let s, g, b = shares Params.d25_s in
  Alcotest.(check bool) "D25-S sub dominated" true (s > g && s > b);
  let s', g', b' = shares Params.d25_jn in
  Alcotest.(check bool) "D25-JN junction dominated" true (b' > s' && b' > g');
  let _, g_g, _ = shares Params.d25_g in
  Alcotest.(check bool) "D25-G has the largest off-state gate term" true
    (g_g > g && g_g > g')

(* ---------------------------------------------------------------- Model *)

(* Currents from the nets into gate, drain, source and bulk, summed as the
   solver sums them. *)
let terminals (c : Model.components) =
  let t = Array.make 4 0.0 in
  Model.terminals_into
    [| c.Model.ids; c.Model.igso; c.Model.igdo; c.Model.igcs; c.Model.igcd;
       c.Model.igb; c.Model.ibtbt_d; c.Model.ibtbt_s |]
    t 0;
  t


let test_terminal_conservation_nominal () =
  let t =
    terminals
      (Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
         { Model.vg = 0.3; vd = 0.7; vs = 0.1; vb = 0.0 })
  in
  check_float ~eps:1e-18 "KCL inside device" 0.0
    (t.(0) +. t.(1) +. t.(2)
   +. t.(3))

let prop_terminal_conservation =
  qtest "terminal currents sum to zero for random biases"
    QCheck2.Gen.(
      tup4 (float_range (-0.2) 1.1) (float_range (-0.2) 1.1)
        (float_range (-0.2) 1.1)
        (float_bound_inclusive 1.0))
    (fun (vg, vd, vs, pol_pick) ->
      let pol = if pol_pick < 0.5 then Params.Nmos else Params.Pmos in
      let vb = match pol with Params.Nmos -> 0.0 | Params.Pmos -> vdd in
      let t =
        terminals
          (Model.components d25 pol ~w:1.5 ~temp:320.0 { Model.vg; vd; vs; vb })
      in
      let sum =
        t.(0) +. t.(1) +. t.(2)
        +. t.(3)
      in
      let scale =
        abs_float t.(0) +. abs_float t.(1)
        +. abs_float t.(2) +. abs_float t.(3)
        +. 1e-15
      in
      abs_float sum /. scale < 1e-9)

let prop_pmos_mirrors_nmos =
  qtest "PMOS components are the voltage reflection of an NMOS twin"
    QCheck2.Gen.(
      tup3 (float_range 0.0 0.9) (float_range 0.0 0.9) (float_range 0.0 0.9))
    (fun (vg, vd, vs) ->
      let cp =
        Model.components d25 Params.Pmos ~w:2.0 ~temp:300.0
          { Model.vg; vd; vs; vb = 0.0 }
      in
      let reflected = { Model.vg = -.vg; vd = -.vd; vs = -.vs; vb = 0.0 } in
      let swapped = { d25 with Params.nmos = d25.Params.pmos } in
      let cn = Model.components swapped Params.Nmos ~w:2.0 ~temp:300.0 reflected in
      let close a b = abs_float (a +. b) <= 1e-15 +. (1e-9 *. abs_float a) in
      close cp.Model.ids cn.Model.ids
      && close cp.Model.igso cn.Model.igso
      && close cp.Model.igdo cn.Model.igdo
      && close cp.Model.ibtbt_d cn.Model.ibtbt_d
      && close cp.Model.ibtbt_s cn.Model.ibtbt_s)

let test_subthreshold_increases_with_vgs () =
  let ids vg =
    (Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
       { Model.vg; vd = vdd; vs = 0.0; vb = 0.0 }).Model.ids
  in
  Alcotest.(check bool) "monotone in Vgs" true
    (ids 0.02 > ids 0.0 && ids 0.05 > ids 0.02)

let test_subthreshold_dibl () =
  let ids vd =
    (Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
       { Model.vg = 0.0; vd; vs = 0.0; vb = 0.0 }).Model.ids
  in
  Alcotest.(check bool) "DIBL raises leakage with Vds" true
    (ids 0.9 > ids 0.5 && ids 0.5 > ids 0.2)

let test_subthreshold_exponential_in_temp () =
  let sub temp =
    let s, _, _ = Model.off_state_leakage d50 Params.Nmos ~w:1.0 ~temp
        ~vdd:d50.Params.vdd in
    s
  in
  Alcotest.(check bool) "more than 3x per 60K" true
    (sub 360.0 /. sub 300.0 > 3.0)

let test_gate_leakage_flat_in_temp () =
  let gate temp =
    Model.gate_leakage
      (Model.components d25 Params.Nmos ~w:1.0 ~temp
         { Model.vg = vdd; vd = 0.0; vs = 0.0; vb = 0.0 })
  in
  let r = gate 400.0 /. gate 300.0 in
  Alcotest.(check bool) "less than 10% per 100K" true (r < 1.10 && r > 0.95)

let test_btbt_mild_in_temp () =
  let btbt temp =
    let _, _, b = Model.off_state_leakage d25 Params.Nmos ~w:1.0 ~temp ~vdd in
    b
  in
  let r = btbt 400.0 /. btbt 300.0 in
  Alcotest.(check bool) "marginal increase" true (r > 1.0 && r < 2.0)

let test_component_crossover_with_temp () =
  (* Fig 4c (50 nm device): gate + BTBT >= sub at 300 K; sub dominates hot. *)
  let s300, g300, b300 =
    Model.off_state_leakage d50 Params.Nmos ~w:1.0 ~temp:300.0
      ~vdd:d50.Params.vdd
  in
  Alcotest.(check bool) "room temperature: tunneling >= sub" true
    (g300 +. b300 >= s300);
  let s400, g400, b400 =
    Model.off_state_leakage d50 Params.Nmos ~w:1.0 ~temp:400.0
      ~vdd:d50.Params.vdd
  in
  Alcotest.(check bool) "hot: sub dominates" true (s400 > g400 && s400 > b400)

let test_halo_tradeoff () =
  (* Fig 4a: more halo -> less subthreshold, more BTBT, gate unchanged. *)
  let at halo =
    Model.off_state_leakage (Params.with_halo d25 halo) Params.Nmos ~w:1.0
      ~temp:300.0 ~vdd
  in
  let s_lo, g_lo, b_lo = at 0.7 in
  let s_hi, g_hi, b_hi = at 1.4 in
  Alcotest.(check bool) "sub falls with halo" true (s_hi < s_lo);
  Alcotest.(check bool) "btbt rises with halo" true (b_hi > b_lo);
  Alcotest.(check bool) "gate within 25%" true
    (abs_float (g_hi -. g_lo) /. g_lo < 0.25)

let test_tox_tradeoff () =
  (* Fig 4b: thinner oxide -> much more gate tunneling; thicker oxide ->
     worse SCE hence more subthreshold; BTBT roughly flat. *)
  let at tox =
    Model.off_state_leakage (Params.with_tox d25 tox) Params.Nmos ~w:1.0
      ~temp:300.0 ~vdd
  in
  let s_thin, g_thin, b_thin = at 0.9 in
  let s_thick, g_thick, b_thick = at 1.2 in
  Alcotest.(check bool) "gate explodes when thin" true (g_thin > 4.0 *. g_thick);
  Alcotest.(check bool) "sub grows with thicker oxide" true (s_thick > s_thin);
  Alcotest.(check bool) "btbt flat" true
    (abs_float (b_thick -. b_thin) /. b_thin < 0.05)

let test_length_rolloff () =
  let at length =
    let s, _, _ =
      Model.off_state_leakage (Params.with_length d25 length) Params.Nmos
        ~w:1.0 ~temp:300.0 ~vdd
    in
    s
  in
  Alcotest.(check bool) "shorter channel leaks more" true
    (at 0.022 > 1.5 *. at 0.025)

let test_btbt_exponential_in_bias () =
  let b v =
    (Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
       { Model.vg = 0.0; vd = v; vs = 0.0; vb = 0.0 }).Model.ibtbt_d
  in
  Alcotest.(check bool) "monotone" true (b 0.9 > b 0.6 && b 0.6 > b 0.3);
  Alcotest.(check bool) "super-linear growth" true (b 0.9 > 2.5 *. b 0.45)

let test_btbt_zero_at_zero_bias () =
  let c =
    Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
      { Model.vg = 0.0; vd = 0.0; vs = 0.0; vb = 0.0 }
  in
  check_float ~eps:1e-15 "no junction current at 0 bias" 0.0 c.Model.ibtbt_d

let test_forward_diode_clamps () =
  let c =
    Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
      { Model.vg = 0.0; vd = -0.25; vs = 0.0; vb = 0.0 }
  in
  Alcotest.(check bool) "forward junction conducts hard" true
    (c.Model.ibtbt_d < -1e-9)

let test_gate_current_sign_follows_field () =
  let c_pos =
    Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
      { Model.vg = vdd; vd = 0.0; vs = 0.0; vb = 0.0 }
  in
  Alcotest.(check bool) "gate high: current into gate" true
    ((terminals c_pos).(0) > 0.0);
  let c_neg =
    Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
      { Model.vg = 0.0; vd = vdd; vs = vdd; vb = 0.0 }
  in
  Alcotest.(check bool) "gate low: current out of gate" true
    ((terminals c_neg).(0) < 0.0)

let test_reverse_tunneling_weaker () =
  let forward =
    Model.gate_leakage
      (Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
         { Model.vg = vdd; vd = 0.0; vs = 0.0; vb = 0.0 })
  in
  let reverse =
    Model.gate_leakage
      (Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
         { Model.vg = 0.0; vd = vdd; vs = vdd; vb = 0.0 })
  in
  Alcotest.(check bool) "reverse < forward" true (reverse < forward)

let test_channel_current_antisymmetric () =
  let fwd =
    (Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
       { Model.vg = 0.45; vd = 0.6; vs = 0.2; vb = 0.0 }).Model.ids
  in
  let rev =
    (Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
       { Model.vg = 0.45; vd = 0.2; vs = 0.6; vb = 0.0 }).Model.ids
  in
  check_float ~eps:1e-18 "antisymmetric" 0.0 (fwd +. rev)

let test_width_scaling () =
  let at w =
    let s, g, b = Model.off_state_leakage d25 Params.Nmos ~w ~temp:300.0 ~vdd in
    s +. g +. b
  in
  check_float ~eps:1e-12 "leakage linear in width" (2.0 *. at 1.0) (at 2.0)

let test_width_rejects_nonpositive () =
  Alcotest.check_raises "w = 0"
    (Invalid_argument "Model.components: width must be positive") (fun () ->
      ignore
        (Model.components d25 Params.Nmos ~w:0.0 ~temp:300.0
           { Model.vg = 0.0; vd = 0.0; vs = 0.0; vb = 0.0 }))

let test_calibrated_magnitudes () =
  let nas = Physics.amps_to_nanoamps in
  let s, g, b = Model.off_state_leakage d25 Params.Nmos ~w:1.0 ~temp:300.0 ~vdd in
  Alcotest.(check bool) "sub in [150,600] nA" true (nas s > 150.0 && nas s < 600.0);
  Alcotest.(check bool) "off gate in [20,200] nA" true (nas g > 20.0 && nas g < 200.0);
  Alcotest.(check bool) "btbt in [20,100] nA" true (nas b > 20.0 && nas b < 100.0);
  let on_gate =
    Model.gate_leakage
      (Model.components d25 Params.Nmos ~w:1.0 ~temp:300.0
         { Model.vg = vdd; vd = 0.0; vs = 0.0; vb = 0.0 })
  in
  Alcotest.(check bool) "on-state gate tunneling ~ 0.5 uA/um" true
    (nas on_gate > 200.0 && nas on_gate < 1000.0)

let test_off_state_leakage_positive () =
  List.iter
    (fun pol ->
      let s, g, b = Model.off_state_leakage d25 pol ~w:1.0 ~temp:300.0 ~vdd in
      Alcotest.(check bool) "all components positive" true
        (s > 0.0 && g > 0.0 && b > 0.0))
    [ Params.Nmos; Params.Pmos ]

(* ------------------------------------------------------------ Variation *)

let test_variation_nominal_die_identity () =
  let d = Variation.apply_die d25 Variation.nominal_die in
  check_float "length" d25.Params.length d.Params.length;
  check_float "tox" d25.Params.tox d.Params.tox;
  check_float "vdd" d25.Params.vdd d.Params.vdd;
  check_float "vth" d25.Params.nmos.Params.vth0 d.Params.nmos.Params.vth0

let test_variation_sample_statistics () =
  let rng = Rng.create 99 in
  let s = Variation.paper_sigmas in
  let dies = Array.init 20_000 (fun _ -> Variation.sample_die rng s) in
  let dvths = Array.map (fun (d : Variation.die) -> d.Variation.dvth) dies in
  Alcotest.(check (float 0.002)) "dvth mean 0" 0.0 (Stats.mean dvths);
  Alcotest.(check (float 0.002)) "dvth sigma" s.Variation.sigma_vth_inter
    (Stats.std dvths)

let test_variation_with_vth_inter () =
  let s = Variation.with_vth_inter Variation.paper_sigmas 0.05 in
  check_float "retargeted" 0.05 s.Variation.sigma_vth_inter;
  check_float "others kept" Variation.paper_sigmas.Variation.sigma_l
    s.Variation.sigma_l

let test_variation_geometry_clamped () =
  let die = { Variation.dl = -1.0; dtox = -10.0; dvth = 0.0; dvdd = -5.0 } in
  let d = Variation.apply_die d25 die in
  Alcotest.(check bool) "length positive" true (d.Params.length > 0.0);
  Alcotest.(check bool) "tox positive" true (d.Params.tox > 0.0);
  Alcotest.(check bool) "vdd positive" true (d.Params.vdd > 0.0)

let test_variation_apply_gate () =
  let d = Variation.apply_gate d25 0.02 in
  check_float "vth shifted" (d25.Params.nmos.Params.vth0 +. 0.02)
    d.Params.nmos.Params.vth0

let test_variation_corners_ordering () =
  let s = Variation.paper_sigmas in
  let total c =
    let d = Variation.corner_device d25 s c in
    let sub, gate, btbt =
      Model.off_state_leakage d Params.Nmos ~w:1.0 ~temp:300.0 ~vdd:d.Params.vdd
    in
    sub +. gate +. btbt
  in
  let fast = total Variation.Fast
  and typical = total Variation.Typical
  and slow = total Variation.Slow in
  Alcotest.(check bool) "fast > typical > slow" true
    (fast > typical && typical > slow);
  Alcotest.(check bool) "fast/slow spread is large" true (fast > 5.0 *. slow)

let test_variation_typical_corner_is_nominal () =
  let s = Variation.paper_sigmas in
  let d = Variation.corner_device d25 s Variation.Typical in
  check_float "same vth" d25.Params.nmos.Params.vth0 d.Params.nmos.Params.vth0;
  check_float "same vdd" d25.Params.vdd d.Params.vdd

let test_variation_leakage_spread () =
  let rng = Rng.create 5 in
  let s = Variation.paper_sigmas in
  let subs =
    Array.init 2000 (fun _ ->
        let die = Variation.sample_die rng s in
        let d = Variation.apply_die d25 die in
        let sub, _, _ =
          Model.off_state_leakage d Params.Nmos ~w:1.0 ~temp:300.0 ~vdd
        in
        sub)
  in
  let summary = Stats.summarize subs in
  Alcotest.(check bool) "right-skewed spread" true
    (summary.Stats.max -. summary.Stats.p50
    > summary.Stats.p50 -. summary.Stats.min)

(* ---------------------------------------- die clamping regressions *)

(* The clamp floor is an exact contract: a pathological negative sample
   lands ON min_geometry_scale x nominal (not near it, not below it, and
   without raising through the Params setters' positivity guards). *)
let test_variation_clamp_exact_floor () =
  let die =
    {
      Variation.dl = -10.0 *. d25.Params.length;
      dtox = -10.0 *. d25.Params.tox;
      dvth = 0.0;
      dvdd = -10.0 *. d25.Params.vdd;
    }
  in
  let d = Variation.apply_die d25 die in
  let floor_of nominal = Variation.min_geometry_scale *. nominal in
  check_float "length on floor" (floor_of d25.Params.length) d.Params.length;
  check_float "tox on floor" (floor_of d25.Params.tox) d.Params.tox;
  check_float "vdd on floor" (floor_of d25.Params.vdd) d.Params.vdd

let test_variation_clamp_inactive_inside_floor () =
  let die =
    {
      Variation.dl = -0.4 *. d25.Params.length;
      dtox = 0.1 *. d25.Params.tox;
      dvth = 0.0;
      dvdd = 0.05;
    }
  in
  let d = Variation.apply_die d25 die in
  check_float "length passes through" (0.6 *. d25.Params.length)
    d.Params.length;
  check_float "tox passes through" (1.1 *. d25.Params.tox) d.Params.tox;
  check_float "vdd passes through" (d25.Params.vdd +. 0.05) d.Params.vdd

let test_variation_vth_never_clamped () =
  let die = { Variation.nominal_die with Variation.dvth = -0.35 } in
  let d = Variation.apply_die d25 die in
  check_float "nmos vth shifted verbatim"
    (d25.Params.nmos.Params.vth0 -. 0.35)
    d.Params.nmos.Params.vth0

let prop_apply_die_physical =
  qtest "apply_die keeps any die physical"
    QCheck2.Gen.(
      let shift = float_range (-2.0) 2.0 in
      quad shift shift shift shift)
    (fun (dl, dtox, dvth, dvdd) ->
      let d = Variation.apply_die d25 { Variation.dl; dtox; dvth; dvdd } in
      let floor_of nominal = Variation.min_geometry_scale *. nominal in
      let ok field nominal shift =
        field = Float.max (floor_of nominal) (nominal +. shift)
      in
      ok d.Params.length d25.Params.length dl
      && ok d.Params.tox d25.Params.tox dtox
      && ok d.Params.vdd d25.Params.vdd dvdd
      && d.Params.nmos.Params.vth0 = d25.Params.nmos.Params.vth0 +. dvth)

let test_corner_die_directions () =
  let s = Variation.paper_sigmas in
  let fast = Variation.corner_device d25 s Variation.Fast in
  let slow = Variation.corner_device d25 s Variation.Slow in
  Alcotest.(check bool) "fast: short, thin, low vth, high vdd" true
    (fast.Params.length < d25.Params.length
    && fast.Params.tox < d25.Params.tox
    && fast.Params.nmos.Params.vth0 < d25.Params.nmos.Params.vth0
    && fast.Params.vdd > d25.Params.vdd);
  Alcotest.(check bool) "slow: long, thick, high vth, low vdd" true
    (slow.Params.length > d25.Params.length
    && slow.Params.tox > d25.Params.tox
    && slow.Params.nmos.Params.vth0 > d25.Params.nmos.Params.vth0
    && slow.Params.vdd < d25.Params.vdd);
  Alcotest.(check bool) "corner devices are deterministic" true
    (Stdlib.compare fast (Variation.corner_device d25 s Variation.Fast) = 0
    && Stdlib.compare slow (Variation.corner_device d25 s Variation.Slow) = 0)

(* ---------------------------------------- jets vs finite differences *)

module Jet = Leakage_numeric.Jet
module Fd = Diff_harness.Fd

(* Worst-case (leakiest) off state per polarity, in absolute node volts. *)
let off_bias = function
  | Params.Nmos -> { Model.vg = 0.0; vd = vdd; vs = 0.0; vb = 0.0 }
  | Params.Pmos -> { Model.vg = vdd; vd = 0.0; vs = vdd; vb = vdd }

let const_bias (b : Model.bias) =
  {
    Model.jvg = Jet.const b.Model.vg;
    jvd = Jet.const b.Model.vd;
    jvs = Jet.const b.Model.vs;
    jvb = Jet.const b.Model.vb;
  }

(* The signed sources, not the abs-summed reporting scalars: |.| kinks
   where a component crosses zero, which would poison the finite
   differences without testing anything about the jets. *)
let scalars =
  [
    ("ids", (fun (j : Model.components_jet) -> j.Model.jids),
     fun (c : Model.components) -> c.Model.ids);
    ("igso", (fun j -> j.Model.jigso), fun c -> c.Model.igso);
    ("igdo", (fun j -> j.Model.jigdo), fun c -> c.Model.igdo);
    ("igcs", (fun j -> j.Model.jigcs), fun c -> c.Model.igcs);
    ("igcd", (fun j -> j.Model.jigcd), fun c -> c.Model.igcd);
    ("igb", (fun j -> j.Model.jigb), fun c -> c.Model.igb);
    ("ibtbt_d", (fun j -> j.Model.jibtbt_d), fun c -> c.Model.ibtbt_d);
    ("ibtbt_s", (fun j -> j.Model.jibtbt_s), fun c -> c.Model.ibtbt_s);
  ]

let both_polarities = [ (Params.Nmos, "nmos"); (Params.Pmos, "pmos") ]

let test_jet_constant_seeds_match_components () =
  List.iter
    (fun (pol, pname) ->
      let b = off_bias pol in
      let c = Model.components d25 pol ~w:1.3 ~temp:320.0 b in
      let j =
        Model.components_jet d25 pol ~w:1.3 ~temp:320.0
          ~length:(Jet.const d25.Params.length)
          ~tox:(Jet.const d25.Params.tox) ~dvth:(Jet.const 0.0) (const_bias b)
      in
      List.iter
        (fun (sname, pickj, pick) ->
          check_float ~eps:0.0
            (Printf.sprintf "%s %s value" pname sname)
            (pick c)
            (Jet.value (pickj j));
          check_float ~eps:0.0
            (Printf.sprintf "%s %s deriv" pname sname)
            0.0
            (Jet.deriv (pickj j)))
        scalars)
    both_polarities

(* One seeded axis: [jet] evaluates the model with that axis as the jet
   variable, [f] is the plain-model scalar as a function of the axis; the
   jet's first and second derivatives must match central differences. *)
let check_axis ~pname ~axis ~h ~x jet f =
  List.iter
    (fun (sname, pickj, pick) ->
      let j = pickj jet in
      let name = Printf.sprintf "%s %s d/d%s" pname sname axis in
      Fd.check_grad ~floor:1e-12 ~name ~h (fun v -> pick (f v)) x
        (Jet.deriv j);
      Fd.check_second ~tol:1e-3 ~floor:1e-8
        ~name:(name ^ " (2nd)")
        ~h
        (fun v -> pick (f v))
        x (Jet.second j))
    scalars

let test_jet_length_matches_fd () =
  List.iter
    (fun (pol, pname) ->
      let b = off_bias pol in
      let jet =
        Model.components_jet d25 pol ~w:1.0 ~temp:300.0
          ~length:(Jet.var d25.Params.length)
          ~tox:(Jet.const d25.Params.tox) ~dvth:(Jet.const 0.0) (const_bias b)
      in
      check_axis ~pname ~axis:"length" ~h:1e-5 ~x:d25.Params.length jet
        (fun l -> Model.components (Params.with_length d25 l) pol ~w:1.0 ~temp:300.0 b))
    both_polarities

let test_jet_tox_matches_fd () =
  List.iter
    (fun (pol, pname) ->
      let b = off_bias pol in
      let jet =
        Model.components_jet d25 pol ~w:1.0 ~temp:300.0
          ~length:(Jet.const d25.Params.length)
          ~tox:(Jet.var d25.Params.tox) ~dvth:(Jet.const 0.0) (const_bias b)
      in
      check_axis ~pname ~axis:"tox" ~h:1e-5 ~x:d25.Params.tox jet (fun t ->
          Model.components (Params.with_tox d25 t) pol ~w:1.0 ~temp:300.0 b))
    both_polarities

let test_jet_dvth_matches_fd () =
  List.iter
    (fun (pol, pname) ->
      let b = off_bias pol in
      let jet =
        Model.components_jet d25 pol ~w:1.0 ~temp:300.0
          ~length:(Jet.const d25.Params.length)
          ~tox:(Jet.const d25.Params.tox) ~dvth:(Jet.var 0.0) (const_bias b)
      in
      check_axis ~pname ~axis:"vth" ~h:1e-5 ~x:0.0 jet (fun dv ->
          Model.components (Params.with_vth_shift d25 dv) pol ~w:1.0
            ~temp:300.0 b))
    both_polarities

(* An interior bias point for the voltage axes: every junction strictly
   reverse-biased and the channel in weak inversion, so no source sits on
   the zero-bias BTBT kink or the forward-diode clamp and every component
   is smooth in all four terminal voltages. *)
let smooth_bias = function
  | Params.Nmos -> { Model.vg = 0.07; vd = 0.5; vs = 0.03; vb = -0.04 }
  | Params.Pmos ->
    {
      Model.vg = vdd -. 0.07;
      vd = vdd -. 0.5;
      vs = vdd -. 0.03;
      vb = vdd +. 0.04;
    }

let test_jet_bias_matches_fd () =
  List.iter
    (fun (pol, pname) ->
      let b = smooth_bias pol in
      List.iter
        (fun (axis, seed, subst) ->
          let jet =
            Model.components_jet d25 pol ~w:1.0 ~temp:300.0
              ~length:(Jet.const d25.Params.length)
              ~tox:(Jet.const d25.Params.tox) ~dvth:(Jet.const 0.0) (seed b)
          in
          let x =
            match axis with
            | "vg" -> b.Model.vg
            | "vd" -> b.Model.vd
            | "vs" -> b.Model.vs
            | _ -> b.Model.vb
          in
          check_axis ~pname ~axis ~h:1e-5 ~x jet (fun v ->
              Model.components d25 pol ~w:1.0 ~temp:300.0 (subst b v)))
        [
          ( "vg",
            (fun b -> { (const_bias b) with Model.jvg = Jet.var b.Model.vg }),
            fun b v -> { b with Model.vg = v } );
          ( "vd",
            (fun b -> { (const_bias b) with Model.jvd = Jet.var b.Model.vd }),
            fun b v -> { b with Model.vd = v } );
          ( "vs",
            (fun b -> { (const_bias b) with Model.jvs = Jet.var b.Model.vs }),
            fun b v -> { b with Model.vs = v } );
          ( "vb",
            (fun b -> { (const_bias b) with Model.jvb = Jet.var b.Model.vb }),
            fun b v -> { b with Model.vb = v } );
        ])
    both_polarities

let () =
  Alcotest.run "device"
    [
      ( "physics",
        [
          Alcotest.test_case "thermal voltage" `Quick test_thermal_voltage;
          Alcotest.test_case "vT linear" `Quick test_thermal_voltage_scales;
          Alcotest.test_case "bandgap" `Quick test_bandgap_narrows;
          Alcotest.test_case "celsius" `Quick test_celsius_roundtrip;
          Alcotest.test_case "nanoamps" `Quick test_nanoamps;
        ] );
      ( "params",
        [
          Alcotest.test_case "fet selector" `Quick test_fet_selector;
          Alcotest.test_case "variants" `Quick test_variants_exist;
          Alcotest.test_case "corner names" `Quick test_of_name;
          Alcotest.test_case "halo guard" `Quick test_with_halo_rejects_nonpositive;
          Alcotest.test_case "vth shift" `Quick test_with_vth_shift;
          Alcotest.test_case "variant totals" `Quick test_variant_totals_comparable;
          Alcotest.test_case "variant domination" `Quick test_variant_domination;
        ] );
      ( "model",
        [
          Alcotest.test_case "terminal KCL" `Quick test_terminal_conservation_nominal;
          prop_terminal_conservation;
          prop_pmos_mirrors_nmos;
          Alcotest.test_case "sub vs vgs" `Quick test_subthreshold_increases_with_vgs;
          Alcotest.test_case "DIBL" `Quick test_subthreshold_dibl;
          Alcotest.test_case "sub vs T" `Quick test_subthreshold_exponential_in_temp;
          Alcotest.test_case "gate vs T" `Quick test_gate_leakage_flat_in_temp;
          Alcotest.test_case "btbt vs T" `Quick test_btbt_mild_in_temp;
          Alcotest.test_case "crossover with T" `Quick test_component_crossover_with_temp;
          Alcotest.test_case "halo tradeoff" `Quick test_halo_tradeoff;
          Alcotest.test_case "tox tradeoff" `Quick test_tox_tradeoff;
          Alcotest.test_case "length roll-off" `Quick test_length_rolloff;
          Alcotest.test_case "btbt vs bias" `Quick test_btbt_exponential_in_bias;
          Alcotest.test_case "btbt zero bias" `Quick test_btbt_zero_at_zero_bias;
          Alcotest.test_case "forward diode" `Quick test_forward_diode_clamps;
          Alcotest.test_case "gate sign" `Quick test_gate_current_sign_follows_field;
          Alcotest.test_case "reverse tunneling" `Quick test_reverse_tunneling_weaker;
          Alcotest.test_case "channel antisymmetry" `Quick test_channel_current_antisymmetric;
          Alcotest.test_case "width scaling" `Quick test_width_scaling;
          Alcotest.test_case "width guard" `Quick test_width_rejects_nonpositive;
          Alcotest.test_case "calibration" `Quick test_calibrated_magnitudes;
          Alcotest.test_case "off-state positive" `Quick test_off_state_leakage_positive;
        ] );
      ( "variation",
        [
          Alcotest.test_case "nominal identity" `Quick test_variation_nominal_die_identity;
          Alcotest.test_case "sample stats" `Slow test_variation_sample_statistics;
          Alcotest.test_case "with vth inter" `Quick test_variation_with_vth_inter;
          Alcotest.test_case "geometry clamps" `Quick test_variation_geometry_clamped;
          Alcotest.test_case "apply gate" `Quick test_variation_apply_gate;
          Alcotest.test_case "corners ordering" `Quick test_variation_corners_ordering;
          Alcotest.test_case "typical corner" `Quick test_variation_typical_corner_is_nominal;
          Alcotest.test_case "leakage spread" `Quick test_variation_leakage_spread;
          Alcotest.test_case "clamp exact floor" `Quick test_variation_clamp_exact_floor;
          Alcotest.test_case "clamp inactive inside floor" `Quick
            test_variation_clamp_inactive_inside_floor;
          Alcotest.test_case "vth never clamped" `Quick test_variation_vth_never_clamped;
          prop_apply_die_physical;
          Alcotest.test_case "corner directions" `Quick test_corner_die_directions;
        ] );
      ( "jets",
        [
          Alcotest.test_case "constant seeds = components" `Quick
            test_jet_constant_seeds_match_components;
          Alcotest.test_case "d/dlength vs FD" `Quick test_jet_length_matches_fd;
          Alcotest.test_case "d/dtox vs FD" `Quick test_jet_tox_matches_fd;
          Alcotest.test_case "d/dvth vs FD" `Quick test_jet_dvth_matches_fd;
          Alcotest.test_case "d/dbias vs FD" `Quick test_jet_bias_matches_fd;
        ] );
    ]
