(* Tests of the transistor-level DC solver and leakage attribution: circuit
   flattening, Gauss-Seidel vs dense Newton agreement, KCL closure, the
   loading-effect signs of §4 and the stacking effect. *)

module Params = Leakage_device.Params
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate
module Flatten = Leakage_spice.Flatten
module Dc = Leakage_spice.Dc_solver
module Report = Leakage_spice.Leakage_report
module Rng = Leakage_numeric.Rng

let device = Params.d25
let vdd = device.Params.vdd
let temp = 300.0

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let single_gate kind =
  let b = Netlist.Builder.create ("tb_" ^ Gate.name kind) in
  let pins =
    Array.init (Gate.arity kind) (fun i ->
        Netlist.Builder.input ~name:(Printf.sprintf "i%d" i) b)
  in
  let out = Netlist.Builder.gate ~name:"out" b kind pins in
  Netlist.Builder.mark_output b out;
  (Netlist.Builder.finish b, out)

let solve_gate ?(device = device) kind vector =
  let nl, out = single_gate kind in
  let assignment = Simulate.run nl vector in
  let flat = Flatten.flatten ~device ~temp nl assignment in
  let result = Dc.solve flat in
  (flat, result, out)

let inverter_chain ~loads_in ~loads_out =
  (* pi -> D -> vin -> G -> vout, with sibling loads on vin and fanout loads
     on vout; G has gate id 1 *)
  let b = Netlist.Builder.create "chain" in
  let pi = Netlist.Builder.input ~name:"pi" b in
  let vin = Netlist.Builder.gate ~name:"vin" b Gate.Inv [| pi |] in
  let vout = Netlist.Builder.gate ~name:"vout" b Gate.Inv [| vin |] in
  for i = 1 to loads_in do
    ignore (Netlist.Builder.gate ~name:(Printf.sprintf "li%d" i) b Gate.Inv [| vin |])
  done;
  for i = 1 to loads_out do
    ignore (Netlist.Builder.gate ~name:(Printf.sprintf "lo%d" i) b Gate.Inv [| vout |])
  done;
  Netlist.Builder.mark_output b vout;
  (Netlist.Builder.finish b, vin, vout)

let observed_components ~loads_in ~loads_out pattern =
  let nl, _, _ = inverter_chain ~loads_in ~loads_out in
  let report, _, _ = Report.analyze ~device ~temp nl (Logic.vector_of_string pattern) in
  report.Report.per_gate.(1)

(* -------------------------------------------------------------- Flatten *)

let test_flatten_counts_inverter () =
  let nl, _ = single_gate Gate.Inv in
  let assignment = Simulate.run nl [| Logic.Zero |] in
  let flat = Flatten.flatten ~device ~temp nl assignment in
  Alcotest.(check int) "2 transistors" 2 (Array.length flat.Flatten.transistors);
  Alcotest.(check int) "1 unknown (output)" 1 flat.Flatten.n_unknowns

let test_flatten_counts_nand3 () =
  let nl, _ = single_gate (Gate.Nand 3) in
  let assignment = Simulate.run nl (Logic.vector_of_string "000") in
  let flat = Flatten.flatten ~device ~temp nl assignment in
  Alcotest.(check int) "6 transistors" 6 (Array.length flat.Flatten.transistors);
  (* output + 2 stack nodes *)
  Alcotest.(check int) "3 unknowns" 3 flat.Flatten.n_unknowns

let test_flatten_counts_aoi21 () =
  let nl, _ = single_gate Gate.Aoi21 in
  let assignment = Simulate.run nl (Logic.vector_of_string "000") in
  let flat = Flatten.flatten ~device ~temp nl assignment in
  Alcotest.(check int) "6 transistors" 6 (Array.length flat.Flatten.transistors);
  (* output + 1 pull-down stack node + 1 pull-up stack node *)
  Alcotest.(check int) "3 unknowns" 3 flat.Flatten.n_unknowns;
  (* AOI21 = NOR2(AND2) logically, but one stage: check leakage is sane and
     the solved output sits at the rail implied by the vector *)
  let result = Dc.solve flat in
  Alcotest.(check bool) "converged" true result.Dc.converged

let test_aoi_matches_composite_logic () =
  (* the complex cell and its AND+NOR composite must agree logically at the
     solved operating point (output within the same rail band) *)
  List.iter
    (fun vector ->
      let v = Logic.vector_of_string vector in
      let flat, result, out = solve_gate Gate.Aoi21 v in
      let volt =
        Flatten.node_voltage flat result.Dc.voltages flat.Flatten.net_node.(out)
      in
      let expect = Gate.eval Gate.Aoi21 (Array.map Logic.to_bool v) in
      if expect then
        Alcotest.(check bool) (vector ^ " high") true (volt > 0.8 *. vdd)
      else Alcotest.(check bool) (vector ^ " low") true (volt < 0.2 *. vdd))
    [ "000"; "001"; "010"; "011"; "100"; "101"; "110"; "111" ]

let test_flatten_counts_xor () =
  let nl, _ = single_gate Gate.Xor in
  let assignment = Simulate.run nl (Logic.vector_of_string "00") in
  let flat = Flatten.flatten ~device ~temp nl assignment in
  Alcotest.(check int) "16 transistors" 16 (Array.length flat.Flatten.transistors);
  (* 4 stage outputs (3 internal + cell output) + 4 stack nodes *)
  Alcotest.(check int) "8 unknowns" 8 flat.Flatten.n_unknowns

let test_flatten_initial_follows_logic () =
  let nl, _ = single_gate Gate.Inv in
  let assignment = Simulate.run nl [| Logic.Zero |] in
  let flat = Flatten.flatten ~device ~temp nl assignment in
  Alcotest.(check (float 1e-9)) "output init at rail" vdd flat.Flatten.initial.(0)

let test_flatten_blocks_cover_unknowns () =
  let nl, _, _ = inverter_chain ~loads_in:2 ~loads_out:2 in
  let assignment = Simulate.run nl [| Logic.One |] in
  let flat = Flatten.flatten ~device ~temp nl assignment in
  let seen = Array.make flat.Flatten.n_unknowns 0 in
  Array.iter
    (fun block -> Array.iter (fun i -> seen.(i) <- seen.(i) + 1) block)
    flat.Flatten.blocks;
  Alcotest.(check bool) "each unknown in exactly one block" true
    (Array.for_all (fun c -> c = 1) seen)

let test_flatten_rejects_bad_assignment () =
  let nl, _ = single_gate Gate.Inv in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Flatten.flatten: assignment size mismatch") (fun () ->
      ignore (Flatten.flatten ~device ~temp nl [| Logic.Zero |]))

(* ------------------------------------------------------------ Dc_solver *)

let test_solve_inverter_output_near_rail () =
  let flat, result, out = solve_gate Gate.Inv [| Logic.Zero |] in
  let v = Flatten.node_voltage flat result.Dc.voltages flat.Flatten.net_node.(out) in
  Alcotest.(check bool) "converged" true result.Dc.converged;
  Alcotest.(check bool) "output within 10 mV of VDD" true
    (abs_float (v -. vdd) < 0.01)

let test_solve_inverter_output_low () =
  let flat, result, out = solve_gate Gate.Inv [| Logic.One |] in
  ignore flat;
  let v = Flatten.node_voltage flat result.Dc.voltages flat.Flatten.net_node.(out) in
  Alcotest.(check bool) "output within 10 mV of 0" true (abs_float v < 0.01)

let test_solve_residuals_small () =
  let _flat, result, _ = solve_gate (Gate.Nand 2) (Logic.vector_of_string "01") in
  Alcotest.(check bool) "max residual < 1e-15 A" true
    (result.Dc.max_residual < 1e-15)

let test_solve_injection_shifts_node () =
  let nl, out = single_gate Gate.Inv in
  let assignment = Simulate.run nl [| Logic.One |] in
  let flat = Flatten.flatten ~device ~temp nl assignment in
  let u = Option.get (Flatten.unknown_of_net flat out) in
  let base = (Dc.solve flat).Dc.voltages.(u) in
  let pushed = (Dc.solve ~injections:[ (u, 1e-6) ] flat).Dc.voltages.(u) in
  Alcotest.(check bool) "positive injection raises the node" true
    (pushed > base +. 1e-4)

let test_solve_injection_guard () =
  let nl, _ = single_gate Gate.Inv in
  let assignment = Simulate.run nl [| Logic.One |] in
  let flat = Flatten.flatten ~device ~temp nl assignment in
  Alcotest.check_raises "bad injection index"
    (Invalid_argument "Dc_solver: injection at unknown node index") (fun () ->
      ignore (Dc.solve ~injections:[ (99, 1e-6) ] flat))

let test_dense_matches_gauss_seidel () =
  let nl, _, _ = inverter_chain ~loads_in:2 ~loads_out:2 in
  List.iter
    (fun pattern ->
      let assignment = Simulate.run nl (Logic.vector_of_string pattern) in
      let flat = Flatten.flatten ~device ~temp nl assignment in
      let gs = Dc.solve flat in
      let dense = Dc.solve_dense flat in
      Alcotest.(check bool) "both converged" true
        (gs.Dc.converged && dense.Dc.converged);
      Array.iteri
        (fun i v ->
          if abs_float (v -. dense.Dc.voltages.(i)) > 1e-9 then
            Alcotest.failf "node %d: gs %.12f dense %.12f" i v
              dense.Dc.voltages.(i))
        gs.Dc.voltages)
    [ "0"; "1" ]

let prop_dense_matches_gs_on_random_cells =
  qtest ~count:20 "GS equals dense Newton on random cells and vectors"
    QCheck2.Gen.(tup2 (int_bound (List.length Gate.all_kinds - 1)) (int_bound 15))
    (fun (kind_idx, vec_bits) ->
      let kind = List.nth Gate.all_kinds kind_idx in
      let width = Gate.arity kind in
      let vector = Logic.vector_of_int ~width (vec_bits land ((1 lsl width) - 1)) in
      let nl, _ = single_gate kind in
      let assignment = Simulate.run nl vector in
      let flat = Flatten.flatten ~device ~temp nl assignment in
      let gs = Dc.solve flat in
      let dense = Dc.solve_dense flat in
      Array.for_all2
        (fun a b -> abs_float (a -. b) < 1e-8)
        gs.Dc.voltages dense.Dc.voltages)

let test_stack_node_settles_between_rails () =
  let _flat, result, _ = solve_gate (Gate.Nand 2) (Logic.vector_of_string "00") in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "within rails" true (v >= -0.01 && v <= vdd +. 0.01))
    result.Dc.voltages

(* ------------------------------------------------------ Leakage report *)

let test_report_components_positive () =
  let flat, result, _ = solve_gate (Gate.Nand 2) (Logic.vector_of_string "10") in
  let report = Report.of_solution flat result.Dc.voltages in
  let c = report.Report.per_gate.(0) in
  Alcotest.(check bool) "all positive" true
    (c.Report.isub > 0.0 && c.Report.igate > 0.0 && c.Report.ibtbt > 0.0)

let test_report_totals_sum_per_gate () =
  let nl, _, _ = inverter_chain ~loads_in:1 ~loads_out:1 in
  let report, _, _ = Report.analyze ~device ~temp nl [| Logic.One |] in
  let summed =
    Array.fold_left Report.add Report.zero report.Report.per_gate
  in
  Alcotest.(check (float 1e-18)) "totals = sum"
    (Report.total report.Report.totals) (Report.total summed)

let test_report_rail_currents_positive () =
  let nl, _, _ = inverter_chain ~loads_in:0 ~loads_out:0 in
  let report, _, _ = Report.analyze ~device ~temp nl [| Logic.One |] in
  Alcotest.(check bool) "vdd sources current" true (report.Report.vdd_current > 0.0);
  Alcotest.(check bool) "ground sinks current" true (report.Report.gnd_current > 0.0)

let test_report_components_helpers () =
  let a = { Report.isub = 1.0; igate = 2.0; ibtbt = 3.0 } in
  Alcotest.(check (float 0.0)) "total" 6.0 (Report.total a);
  let b = Report.add a (Report.scale 2.0 a) in
  Alcotest.(check (float 0.0)) "add+scale" 18.0 (Report.total b);
  Alcotest.(check (float 0.0)) "zero" 0.0 (Report.total Report.zero)

let test_stacking_effect () =
  (* §4 / [9]: both-off stack leaks much less subthreshold than one-off *)
  let sub vector =
    let flat, result, _ = solve_gate (Gate.Nand 2) (Logic.vector_of_string vector) in
    (Report.of_solution flat result.Dc.voltages).Report.per_gate.(0).Report.isub
  in
  Alcotest.(check bool) "00 << 01" true (sub "00" < 0.35 *. sub "01");
  Alcotest.(check bool) "00 << 10" true (sub "00" < 0.35 *. sub "10")

let test_input_loading_raises_subthreshold () =
  (* §4: input loading raises the off transistor's |Vgs| -> more sub *)
  let base = observed_components ~loads_in:0 ~loads_out:0 "1" in
  let loaded = observed_components ~loads_in:6 ~loads_out:0 "1" in
  Alcotest.(check bool) "sub up" true (loaded.Report.isub > base.Report.isub);
  Alcotest.(check bool) "gate slightly down" true
    (loaded.Report.igate < base.Report.igate);
  Alcotest.(check bool) "btbt about flat" true
    (abs_float (loaded.Report.ibtbt -. base.Report.ibtbt)
     /. base.Report.ibtbt < 0.01)

let test_output_loading_reduces_all () =
  let base = observed_components ~loads_in:0 ~loads_out:0 "1" in
  let loaded = observed_components ~loads_in:0 ~loads_out:6 "1" in
  Alcotest.(check bool) "sub down" true (loaded.Report.isub < base.Report.isub);
  Alcotest.(check bool) "gate down" true (loaded.Report.igate < base.Report.igate);
  Alcotest.(check bool) "btbt down" true (loaded.Report.ibtbt < base.Report.ibtbt)

let test_input_loading_effect_both_states () =
  List.iter
    (fun pattern ->
      let base = observed_components ~loads_in:0 ~loads_out:0 pattern in
      let loaded = observed_components ~loads_in:6 ~loads_out:0 pattern in
      Alcotest.(check bool)
        ("sub rises, input " ^ pattern)
        true
        (loaded.Report.isub > base.Report.isub))
    [ "0"; "1" ]

(* [of_gate] reads a gate from the devices a kernel compiled: the bits of
   [of_solution]'s row for every gate, also after [set_gate_device] moved
   one gate to another device, against a flatten that put it there. *)
let test_of_gate_matches_of_solution () =
  let nl = (Leakage_benchmarks.Suite.find "alu88").Leakage_benchmarks.Suite.build () in
  let assignment =
    Simulate.run nl
      (Logic.random_vector (Rng.create 4) (Array.length (Netlist.inputs nl)))
  in
  let shifted = Params.with_vth_shift device 0.03 in
  let flat =
    Flatten.flatten ~device_of_gate:(fun g -> if g = 7 then shifted else device)
      ~device ~temp nl assignment
  in
  let kernel = Dc.kernel (Flatten.flatten ~device ~temp nl assignment) in
  Dc.set_gate_device kernel 7 shifted;
  let r = Dc.run kernel in
  let bits v = Array.map Int64.bits_of_float v in
  Alcotest.(check bool) "same voltages as the shifted flatten" true
    (bits r.Dc.voltages = bits (Dc.solve flat).Dc.voltages);
  let comps (c : Report.components) =
    bits [| c.Report.isub; c.Report.igate; c.Report.ibtbt |]
  in
  Array.iteri
    (fun g row ->
      Alcotest.(check bool) (Printf.sprintf "gate %d" g) true
        (comps (Report.of_gate kernel r.Dc.voltages g) = comps row))
    (Report.of_solution flat r.Dc.voltages).Report.per_gate

let test_pin_current_signs () =
  (* a cell pin at '1' draws current from its net; a pin at '0' injects *)
  let nl, _, _ = inverter_chain ~loads_in:0 ~loads_out:0 in
  let check_pattern pattern expect_sign =
    let assignment = Simulate.run nl (Logic.vector_of_string pattern) in
    let kernel = Dc.kernel (Flatten.flatten ~device ~temp nl assignment) in
    let result = Dc.run kernel in
    (* gate 1 = observed inverter, pin 0 *)
    let pins = [| 0.0 |] in
    ignore (Report.of_gate ~pin_currents:pins kernel result.Dc.voltages 1);
    let i = pins.(0) in
    Alcotest.(check bool)
      (Printf.sprintf "pin current sign at %s" pattern)
      true (expect_sign i > 0.0)
  in
  (* pattern "0": driver inverts -> vin = '1' -> current flows into pin *)
  check_pattern "0" (fun i -> i);
  check_pattern "1" (fun i -> -.i)

let test_analyze_pipeline () =
  let nl, _, _ = inverter_chain ~loads_in:3 ~loads_out:3 in
  let report, result, flat = Report.analyze ~device ~temp nl [| Logic.Zero |] in
  Alcotest.(check bool) "converged" true result.Dc.converged;
  Alcotest.(check int) "per-gate size" (Netlist.gate_count nl)
    (Array.length report.Report.per_gate);
  Alcotest.(check int) "transistor count" (Netlist.transistor_count nl)
    (Array.length flat.Flatten.transistors)

let test_per_gate_vth_override () =
  (* raising one gate's threshold must lower its subthreshold leakage *)
  let nl, _, _ = inverter_chain ~loads_in:0 ~loads_out:0 in
  let base, _, _ = Report.analyze ~device ~temp nl [| Logic.One |] in
  let device_of_gate id =
    if id = 1 then Params.with_vth_shift device 0.05 else device
  in
  let shifted, _, _ =
    Report.analyze ~device_of_gate ~device ~temp nl [| Logic.One |]
  in
  Alcotest.(check bool) "gate 1 sub falls" true
    (shifted.Report.per_gate.(1).Report.isub
     < 0.6 *. base.Report.per_gate.(1).Report.isub);
  Alcotest.(check bool) "gate 0 unaffected (1% tolerance)" true
    (abs_float (shifted.Report.per_gate.(0).Report.isub
                -. base.Report.per_gate.(0).Report.isub)
     /. base.Report.per_gate.(0).Report.isub < 0.01)

let test_temperature_raises_leakage () =
  let nl, _, _ = inverter_chain ~loads_in:0 ~loads_out:0 in
  let cold, _, _ = Report.analyze ~device ~temp:300.0 nl [| Logic.One |] in
  let hot, _, _ = Report.analyze ~device ~temp:380.0 nl [| Logic.One |] in
  (* the temperature-flat gate component is a large share of this device's
     total, so the overall growth is milder than the subthreshold's *)
  Alcotest.(check bool) "hotter leaks more" true
    (Report.total hot.Report.totals > 1.4 *. Report.total cold.Report.totals);
  Alcotest.(check bool) "subthreshold grows strongly" true
    (hot.Report.totals.Report.isub > 1.7 *. cold.Report.totals.Report.isub)

let () =
  Alcotest.run "spice"
    [
      ( "flatten",
        [
          Alcotest.test_case "inverter counts" `Quick test_flatten_counts_inverter;
          Alcotest.test_case "nand3 counts" `Quick test_flatten_counts_nand3;
          Alcotest.test_case "aoi21 counts" `Quick test_flatten_counts_aoi21;
          Alcotest.test_case "aoi vs logic" `Quick test_aoi_matches_composite_logic;
          Alcotest.test_case "xor counts" `Quick test_flatten_counts_xor;
          Alcotest.test_case "initial voltages" `Quick test_flatten_initial_follows_logic;
          Alcotest.test_case "block partition" `Quick test_flatten_blocks_cover_unknowns;
          Alcotest.test_case "assignment guard" `Quick test_flatten_rejects_bad_assignment;
        ] );
      ( "dc-solver",
        [
          Alcotest.test_case "inverter high" `Quick test_solve_inverter_output_near_rail;
          Alcotest.test_case "inverter low" `Quick test_solve_inverter_output_low;
          Alcotest.test_case "residuals" `Quick test_solve_residuals_small;
          Alcotest.test_case "injection shifts" `Quick test_solve_injection_shifts_node;
          Alcotest.test_case "injection guard" `Quick test_solve_injection_guard;
          Alcotest.test_case "dense vs GS" `Quick test_dense_matches_gauss_seidel;
          prop_dense_matches_gs_on_random_cells;
          Alcotest.test_case "stack node range" `Quick test_stack_node_settles_between_rails;
        ] );
      ( "report",
        [
          Alcotest.test_case "components positive" `Quick test_report_components_positive;
          Alcotest.test_case "totals sum" `Quick test_report_totals_sum_per_gate;
          Alcotest.test_case "rail currents" `Quick test_report_rail_currents_positive;
          Alcotest.test_case "component helpers" `Quick test_report_components_helpers;
          Alcotest.test_case "stacking effect" `Quick test_stacking_effect;
          Alcotest.test_case "input loading" `Quick test_input_loading_raises_subthreshold;
          Alcotest.test_case "output loading" `Quick test_output_loading_reduces_all;
          Alcotest.test_case "input loading both states" `Quick test_input_loading_effect_both_states;
          Alcotest.test_case "pin current signs" `Quick test_pin_current_signs;
          Alcotest.test_case "of_gate equals of_solution" `Quick
            test_of_gate_matches_of_solution;
          Alcotest.test_case "analyze pipeline" `Quick test_analyze_pipeline;
          Alcotest.test_case "per-gate vth" `Quick test_per_gate_vth_override;
          Alcotest.test_case "temperature" `Quick test_temperature_raises_leakage;
        ] );
    ]
