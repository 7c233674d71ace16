module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats
module Variation = Leakage_device.Variation
module Params = Leakage_device.Params
module Netlist = Leakage_circuit.Netlist
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Simulate = Leakage_circuit.Simulate
module Flatten = Leakage_spice.Flatten
module Dc_solver = Leakage_spice.Dc_solver
module Report = Leakage_spice.Leakage_report
module Pool = Leakage_parallel.Pool
module Tm = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace

let m_samples = Tm.counter "mc.samples"

type sample = {
  loaded : Report.components;
  unloaded : Report.components;
}

type config = {
  n_samples : int;
  seed : int;
  n_load_in : int;
  n_load_out : int;
  input_value : Logic.value;
}

let paper_config = {
  n_samples = 10_000;
  seed = 20050307;
  n_load_in = 6;
  n_load_out = 6;
  input_value = Logic.Zero;
}

(* Driver -> IN -> observed inverter -> OUT, with optional sibling loads on
   IN and fanout loads on OUT. Gate ids: 0 = driver, 1 = observed, then the
   input loads, then the output loads. *)
let bench ~n_load_in ~n_load_out =
  let b = Netlist.Builder.create "mc_bench" in
  let pi = Netlist.Builder.input ~name:"pi" b in
  let vin = Netlist.Builder.gate ~name:"in" b Gate.Inv [| pi |] in
  let vout = Netlist.Builder.gate ~name:"out" b Gate.Inv [| vin |] in
  for i = 1 to n_load_in do
    ignore (Netlist.Builder.gate ~name:(Printf.sprintf "li%d" i) b Gate.Inv [| vin |])
  done;
  for i = 1 to n_load_out do
    ignore (Netlist.Builder.gate ~name:(Printf.sprintf "lo%d" i) b Gate.Inv [| vout |])
  done;
  Netlist.Builder.mark_output b vout;
  Netlist.Builder.finish b

let observed_gate_id = 1

let solve_components netlist pattern ~die_device ~gate_shifts ~temp =
  let device_of_gate id = Variation.apply_gate die_device gate_shifts.(id) in
  let assignment = Simulate.run netlist pattern in
  let flat =
    Flatten.flatten ~device_of_gate ~device:die_device ~temp netlist assignment
  in
  let kernel = Dc_solver.kernel flat in
  let solution = Dc_solver.run kernel in
  let report = Report.of_solution kernel solution.Dc_solver.voltages in
  report.Report.per_gate.(observed_gate_id)

let run ?pool ?(config = paper_config) ~device ~temp ~sigmas () =
  if config.n_samples <= 0 then invalid_arg "Monte_carlo.run: n_samples";
  let loaded_bench =
    bench ~n_load_in:config.n_load_in ~n_load_out:config.n_load_out
  in
  let bare_bench = bench ~n_load_in:0 ~n_load_out:0 in
  Netlist.warm loaded_bench;
  Netlist.warm bare_bench;
  (* Driver inverts: primary input is the complement of the observed
     inverter's input value. *)
  let pattern = [| Logic.lnot config.input_value |] in
  let n_gates = Netlist.gate_count loaded_bench in
  (* Pre-split one independent stream per sample, sequentially in index
     order, so sample [i] sees the same draws however the samples are later
     scheduled across domains. *)
  let rng = Rng.create config.seed in
  let streams = Array.make config.n_samples rng in
  for i = 0 to config.n_samples - 1 do
    streams.(i) <- Rng.split rng
  done;
  Trace.with_span ~cat:"mc" "mc.run"
    ~args:[ ("samples", string_of_int config.n_samples) ]
  @@ fun () ->
  Pool.map ?pool config.n_samples (fun i ->
      (* the per-domain shard split of this counter is the lane utilization *)
      Tm.incr m_samples;
      let sample_rng = streams.(i) in
      let die = Variation.sample_die sample_rng sigmas in
      let die_device = Variation.apply_die device die in
      let gate_shifts = Array.make n_gates 0.0 in
      for g = 0 to n_gates - 1 do
        Variation.sample_gate_vth_into sample_rng sigmas gate_shifts g
      done;
      let loaded =
        solve_components loaded_bench pattern ~die_device ~gate_shifts ~temp
      in
      let unloaded =
        solve_components bare_bench pattern ~die_device ~gate_shifts ~temp
      in
      { loaded; unloaded })

type spread_shift = {
  sigma_vth_inter : float;
  mean_shift_percent : float;
  std_shift_percent : float;
}

let component_arrays samples ~pick =
  ( Array.map (fun s -> pick s.loaded) samples,
    Array.map (fun s -> pick s.unloaded) samples )

let spread_vs_sigma ?pool ?(config = paper_config) ~device ~temp ~base_sigmas
    ~sigma_vth_inter_values () =
  Array.map
    (fun sigma ->
      let sigmas = Variation.with_vth_inter base_sigmas sigma in
      let samples = run ?pool ~config ~device ~temp ~sigmas () in
      let loaded, unloaded = component_arrays samples ~pick:Report.total in
      let pct base v = (v -. base) /. base *. 100.0 in
      {
        sigma_vth_inter = sigma;
        mean_shift_percent = pct (Stats.mean unloaded) (Stats.mean loaded);
        std_shift_percent = pct (Stats.std unloaded) (Stats.std loaded);
      })
    sigma_vth_inter_values
