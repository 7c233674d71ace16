module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats
module Variation = Leakage_device.Variation
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Report = Leakage_spice.Leakage_report

type sample_totals = {
  with_loading : Report.components;
  no_loading : Report.components;
}

type result = {
  samples : sample_totals array;
  total_with_loading : float array;
  total_no_loading : float array;
}

(* Component-wise ratio of a die-shifted reference inverter to the nominal
   one, averaged over both input states. Captures how geometry and supply
   shifts move each mechanism without touching the per-gate threshold story
   (the die threshold shift is excluded here and folded into the per-gate
   exponent instead). *)
let die_scale lib (die : Variation.die) =
  let device = Library.device lib in
  let temp = Library.temp lib in
  let geometry_only = { die with Variation.dvth = 0.0 } in
  let shifted = Variation.apply_die device geometry_only in
  let reference dev v =
    Testbench.isolated_components ~device:dev ~temp Gate.Inv [| v |]
  in
  let ratio pick =
    let r v =
      let num = pick (reference shifted v) and den = pick (reference device v) in
      if den <= 0.0 then 1.0 else num /. den
    in
    0.5 *. (r Logic.Zero +. r Logic.One)
  in
  {
    Report.isub = ratio (fun c -> c.Report.isub);
    igate = ratio (fun c -> c.Report.igate);
    ibtbt = ratio (fun c -> c.Report.ibtbt);
  }

(* Fixed fan-out width for parallel sampling: slots depend only on the
   sample count, never the pool size. *)
let sample_chunk = 32

let scale_components (c : Report.components) (scale : Report.components)
    (factor : Report.components) =
  {
    Report.isub = c.Report.isub *. scale.Report.isub *. factor.Report.isub;
    igate = c.Report.igate *. scale.Report.igate *. factor.Report.igate;
    ibtbt = c.Report.ibtbt *. scale.Report.ibtbt *. factor.Report.ibtbt;
  }

let run ?(n_samples = 1000) ?(seed = 1) ?pool ~sigmas lib netlist pattern =
  if n_samples <= 0 then invalid_arg "Statistical.run: n_samples";
  (* per-gate nominal estimates and sensitivities, resolved once *)
  let rows, _, _ =
    Estimator.estimate_fold ~init:[]
      ~f:(fun rows _ entry ~loaded ~isolated -> (loaded, isolated, entry) :: rows)
      lib netlist pattern
  in
  let rows = Array.of_list (List.rev rows) in
  (* Every sample's stream is split off the root generator in sample order
     BEFORE any evaluation — the stream assignment is a function of (seed,
     sample index) alone, so fanning the evaluation out over a pool cannot
     change any sample and the result stays bit-identical at any pool
     size. *)
  let rng = Rng.create seed in
  let streams = Array.init n_samples (fun _ -> Rng.split rng) in
  let sample_at i =
    let srng = streams.(i) in
    let die = Variation.sample_die srng sigmas in
    let scale = die_scale lib die in
    let acc_loaded = ref Report.zero and acc_base = ref Report.zero in
    Array.iter
      (fun (loaded, base, entry) ->
        let dv = die.Variation.dvth +. Variation.sample_gate_vth srng sigmas in
        let factor = Characterize.vth_factor entry dv in
        acc_loaded :=
          Report.add !acc_loaded (scale_components loaded scale factor);
        acc_base := Report.add !acc_base (scale_components base scale factor))
      rows;
    { with_loading = !acc_loaded; no_loading = !acc_base }
  in
  let samples =
    match pool with
    | None -> Array.init n_samples sample_at
    | Some _ ->
      let chunks =
        Leakage_parallel.Pool.map_chunked ?pool ~chunk:sample_chunk n_samples
          (fun ~lo ~hi -> Array.init (hi - lo) (fun i -> sample_at (lo + i)))
      in
      Array.concat (Array.to_list chunks)
  in
  {
    samples;
    total_with_loading =
      Array.map (fun s -> Report.total s.with_loading) samples;
    total_no_loading = Array.map (fun s -> Report.total s.no_loading) samples;
  }

let summary r =
  (Stats.summarize r.total_with_loading, Stats.summarize r.total_no_loading)
