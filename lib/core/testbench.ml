module Netlist = Leakage_circuit.Netlist
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Simulate = Leakage_circuit.Simulate
module Flatten = Leakage_spice.Flatten
module Dc_solver = Leakage_spice.Dc_solver
module Report = Leakage_spice.Leakage_report

type t = {
  netlist : Netlist.t;
  dut_gate : int;
  pin_nets : Netlist.net array;
  out_net : Netlist.net;
  pattern : Logic.vector;
}

let make ?strength kind vector =
  let arity = Gate.arity kind in
  if Array.length vector <> arity then
    invalid_arg
      (Printf.sprintf "Testbench.make: %s expects a %d-bit vector"
         (Gate.name kind) arity);
  let b = Netlist.Builder.create ("tb_" ^ Gate.name kind) in
  let pin_nets =
    Array.init arity (fun i ->
        let pi = Netlist.Builder.input ~name:(Printf.sprintf "pi%d" i) b in
        Netlist.Builder.gate ~name:(Printf.sprintf "pin%d" i) b Gate.Inv [| pi |])
  in
  let out_net = Netlist.Builder.gate ~name:"out" ?strength b kind pin_nets in
  Netlist.Builder.mark_output b out_net;
  let netlist = Netlist.Builder.finish b in
  (* Drivers are gates 0..arity-1, the DUT is gate [arity]; drivers invert,
     so the primary pattern is the complement of the requested pin vector. *)
  { netlist;
    dut_gate = arity;
    pin_nets;
    out_net;
    pattern = Array.map Logic.lnot vector }

type bench = {
  tb : t;
  device : Leakage_device.Params.t;
  kernel : Dc_solver.kernel;
  mutable dut_shift : float;  (* threshold shift the DUT is compiled at *)
  mutable nominal : dut option;
}

and dut = {
  leakage : Report.components;
  pin_injection : float array;
}

let compile ~device ~temp ?vdd tb =
  let assignment = Simulate.run tb.netlist tb.pattern in
  let flat = Flatten.flatten ~device ~temp ?vdd tb.netlist assignment in
  { tb; device; kernel = Dc_solver.kernel flat; dut_shift = 0.0;
    nominal = None }

(* One run of the compiled kernel, read at the DUT's transistors. *)
let run_dut b injections =
  let solution = Dc_solver.run ~injections b.kernel in
  let pins = Array.make (Array.length b.tb.pin_nets) 0.0 in
  let leakage =
    Report.of_gate ~pin_currents:pins b.kernel
      solution.Dc_solver.voltages b.tb.dut_gate
  in
  { leakage; pin_injection = Array.map (fun i -> -.i) pins }

let solve ?(injections = []) ?(dut_vth_shift = 0.0) b =
  let unknown_injections =
    List.map
      (fun (net, amps) ->
        match Flatten.unknown_of_net (Dc_solver.flat_of b.kernel) net with
        | Some u -> (u, amps)
        | None ->
          invalid_arg "Testbench.solve: injection into a primary input net")
      injections
  in
  if dut_vth_shift <> b.dut_shift then begin
    Dc_solver.set_gate_device b.kernel b.tb.dut_gate
      (if dut_vth_shift = 0.0 then b.device
       else Leakage_device.Params.with_vth_shift b.device dut_vth_shift);
    b.dut_shift <- dut_vth_shift
  end;
  (* Zero injections at zero shift leave every solver input bit-identical
     to the nominal solve's (a zero adds nothing to a zero injection
     slot), so they share its one run. *)
  if dut_vth_shift = 0.0 && List.for_all (fun (_, a) -> a = 0.0) injections
  then begin
    let d =
      match b.nominal with
      | Some d -> d
      | None ->
        let d = run_dut b [] in
        b.nominal <- Some d;
        d
    in
    { d with pin_injection = Array.copy d.pin_injection }
  end
  else run_dut b unknown_injections

let isolated_components ?strength ~device ~temp ?vdd kind vector =
  let arity = Gate.arity kind in
  if Array.length vector <> arity then
    invalid_arg "Testbench.isolated_components: vector/arity mismatch";
  let b = Netlist.Builder.create ("iso_" ^ Gate.name kind) in
  let pins = Array.init arity (fun i ->
      Netlist.Builder.input ~name:(Printf.sprintf "pi%d" i) b) in
  let out = Netlist.Builder.gate ~name:"out" ?strength b kind pins in
  Netlist.Builder.mark_output b out;
  let netlist = Netlist.Builder.finish b in
  let assignment = Simulate.run netlist vector in
  let flat = Flatten.flatten ~device ~temp ?vdd netlist assignment in
  let kernel = Dc_solver.kernel flat in
  let solution = Dc_solver.run kernel in
  Report.of_gate kernel solution.Dc_solver.voltages 0
