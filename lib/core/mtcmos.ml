module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate
module Flatten = Leakage_spice.Flatten
module Dc_solver = Leakage_spice.Dc_solver
module Report = Leakage_spice.Leakage_report

type mode_result = {
  leakage : Report.components;
  footer_leakage : Report.components;
  virtual_ground : float;
  converged : bool;
}

type result = {
  ungated : Report.components;
  active : mode_result;
  standby : mode_result;
  standby_reduction_percent : float;
  active_overhead_percent : float;
}

let solve_mode ~device ~temp ~sleep netlist assignment =
  let flat = Flatten.flatten ?sleep ~device ~temp netlist assignment in
  (* In standby nothing is strongly driven — every node's equilibrium hangs
     on its neighbours through leakage-level conductances — so Gauss-Seidel
     loses its diagonal dominance. Small circuits go to the dense Newton;
     large ones get generous sweep headroom (their sheer node count restores
     enough local stiffness in practice). *)
  let solution =
    if flat.Flatten.n_unknowns <= 150 then Dc_solver.solve_dense flat
    else
      Dc_solver.solve
        ~options:{ Dc_solver.default_options with Dc_solver.max_sweeps = 400 }
        flat
  in
  let report = Report.of_solution flat solution.Dc_solver.voltages in
  let virtual_ground =
    match Flatten.virtual_ground flat with
    | Some i -> solution.Dc_solver.voltages.(i)
    | None -> 0.0
  in
  ( {
      leakage = report.Report.totals;
      footer_leakage = report.Report.footer;
      virtual_ground;
      converged = solution.Dc_solver.converged;
    },
    report )

let analyze ?sleep_width ~device ~temp netlist pattern =
  let sleep_width =
    match sleep_width with
    | Some w ->
      if w <= 0.0 then invalid_arg "Mtcmos.analyze: non-positive sleep width";
      w
    | None -> float_of_int (Netlist.gate_count netlist)
  in
  let assignment = Simulate.run netlist pattern in
  let ungated_mode, ungated_report =
    solve_mode ~device ~temp ~sleep:None netlist assignment
  in
  ignore ungated_mode;
  let active, _ =
    solve_mode ~device ~temp
      ~sleep:(Some { Flatten.sleep_width; sleep_on = true })
      netlist assignment
  in
  let standby, _ =
    solve_mode ~device ~temp
      ~sleep:(Some { Flatten.sleep_width; sleep_on = false })
      netlist assignment
  in
  let ungated = ungated_report.Report.totals in
  let pct v reference = (v -. reference) /. reference *. 100.0 in
  {
    ungated;
    active;
    standby;
    standby_reduction_percent =
      -.pct (Report.total standby.leakage) (Report.total ungated);
    active_overhead_percent =
      pct (Report.total active.leakage) (Report.total ungated);
  }
