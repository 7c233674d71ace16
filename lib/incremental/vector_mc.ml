module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Estimator = Leakage_core.Estimator
module Pool = Leakage_parallel.Pool

type result = {
  totals : float array;
  baselines : float array;
  summary : Stats.summary;
  baseline_summary : Stats.summary;
  mean_components : Report.components;
  mean_shift_percent : float;
}

(* Fixed resampling chunk width. Every sample is a fresh estimate, so the
   chunks fix only the float-summation tree of the means: it depends on the
   sample count and never on the pool, which makes parallel and sequential
   runs bit-identical. *)
let mc_chunk = 32

(* Estimate vectors.(lo..hi-1) on one chunk-local estimator scratch,
   writing per-vector totals into the shared (disjoint) slices and
   returning the chunk's component sum and loading-shift sum. *)
let run_chunk lib netlist vectors totals baselines ~lo ~hi =
  let scratch = Estimator.scratch netlist in
  let acc = ref Report.zero and shift = ref 0.0 in
  for i = lo to hi - 1 do
    let c, base = Estimator.estimate_totals ~scratch lib netlist vectors.(i) in
    let b = Report.total base in
    totals.(i) <- Report.total c;
    baselines.(i) <- b;
    acc := Report.add !acc c;
    shift := !shift +. ((totals.(i) -. b) /. b *. 100.0)
  done;
  (!acc, !shift)

let resample ?pool ?(seed = 1) ~samples lib netlist =
  if samples <= 0 then invalid_arg "Vector_mc.resample: samples must be positive";
  let rng = Rng.create seed in
  let width = Array.length (Netlist.inputs netlist) in
  (* Draw every vector up front from the single stream, in sample order, so
     the draws never depend on how chunks are scheduled. *)
  let vectors = Array.make samples [||] in
  for i = 0 to samples - 1 do
    vectors.(i) <- Logic.random_vector rng width
  done;
  Netlist.warm netlist;
  let totals = Array.make samples 0.0 in
  let baselines = Array.make samples 0.0 in
  let acc, shift =
    Array.fold_left
      (fun (acc, shift) (c, s) -> (Report.add acc c, shift +. s))
      (Report.zero, 0.0)
      (Pool.map_chunked ?pool ~chunk:mc_chunk samples
         (run_chunk lib netlist vectors totals baselines))
  in
  {
    totals;
    baselines;
    summary = Stats.summarize totals;
    baseline_summary = Stats.summarize baselines;
    mean_components = Report.scale (1.0 /. float_of_int samples) acc;
    mean_shift_percent = shift /. float_of_int samples;
  }
