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

(* The reference inverter's components in both input states, at the
   library corner: the denominators of every sample's die scale. *)
let reference lib device v =
  Testbench.isolated_components ~device ~temp:(Library.temp lib) Gate.Inv
    [| v |]

let nominal_references lib =
  let device = Library.device lib in
  (reference lib device Logic.Zero, reference lib device Logic.One)

(* Component-wise ratio of a die-shifted reference inverter to the nominal
   one, averaged over both input states. Captures how geometry and supply
   shifts move each mechanism without touching the per-gate threshold story
   (the die threshold shift is excluded here and folded into the per-gate
   exponent instead). *)
let scale_against lib (nominal_zero, nominal_one) (die : Variation.die) =
  let geometry_only = { die with Variation.dvth = 0.0 } in
  let shifted = Variation.apply_die (Library.device lib) geometry_only in
  let shifted_zero = reference lib shifted Logic.Zero
  and shifted_one = reference lib shifted Logic.One in
  let ratio pick =
    let r num den =
      let num = pick num and den = pick den in
      if den <= 0.0 then 1.0 else num /. den
    in
    0.5 *. (r shifted_zero nominal_zero +. r shifted_one nominal_one)
  in
  {
    Report.isub = ratio (fun c -> c.Report.isub);
    igate = ratio (fun c -> c.Report.igate);
    ibtbt = ratio (fun c -> c.Report.ibtbt);
  }

let die_scale lib die = scale_against lib (nominal_references lib) die

module Tm = Leakage_telemetry.Telemetry

let m_samples = Tm.counter "statistical.samples"
let m_table_evals = Tm.counter "statistical.table_evals"

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
  (* The nominal reference solves are the same for every sample: solved
     once, before the fan-out, and only read by the samples. *)
  let nominal = nominal_references lib in
  if Tm.enabled () then begin
    Tm.add m_samples n_samples;
    Tm.add m_table_evals (n_samples * Array.length rows)
  end;
  let sample_at i =
    let srng = streams.(i) in
    let die = Variation.sample_die srng sigmas in
    let scale = scale_against lib nominal die in
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
