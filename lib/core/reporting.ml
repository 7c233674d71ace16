module Netlist = Leakage_circuit.Netlist
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Report = Leakage_spice.Leakage_report
module Physics = Leakage_device.Physics

let na = Physics.amps_to_nanoamps

let buffer_csv header rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let f v = Printf.sprintf "%.4f" v

let per_gate_csv netlist (result : Estimator.result) =
  let rows =
    Array.to_list result.Estimator.per_gate
    |> List.map (fun (ge : Estimator.gate_estimate) ->
           let c = ge.Estimator.with_loading in
           let base = Report.total ge.Estimator.no_loading in
           let shift =
             if base = 0.0 then 0.0
             else (Report.total c -. base) /. base *. 100.0
           in
           [
             string_of_int ge.Estimator.gate;
             Gate.name (Netlist.gate_kind netlist ge.Estimator.gate);
             Netlist.net_name netlist (Netlist.gate_out netlist ge.Estimator.gate);
             Logic.vector_to_string ge.Estimator.vector;
             f (na c.Report.isub);
             f (na c.Report.igate);
             f (na c.Report.ibtbt);
             f (na (Report.total c));
             f (na base);
             f shift;
           ])
  in
  buffer_csv
    "gate_id,cell,output_net,vector,isub_nA,igate_nA,ibtbt_nA,total_nA,no_loading_total_nA,loading_shift_percent"
    rows

let totals_csv labeled =
  let rows =
    List.map
      (fun (label, (c : Report.components)) ->
        [
          label;
          f (na c.Report.isub);
          f (na c.Report.igate);
          f (na c.Report.ibtbt);
          f (na (Report.total c));
        ])
      labeled
  in
  buffer_csv "label,isub_nA,igate_nA,ibtbt_nA,total_nA" rows

let ld_sweep_csv points =
  let rows =
    Array.to_list points
    |> List.map (fun (p : Loading.ld_point) ->
           [
             f (na p.Loading.current);
             f p.Loading.ld_sub;
             f p.Loading.ld_gate;
             f p.Loading.ld_btbt;
             f p.Loading.ld_total;
           ])
  in
  buffer_csv "current_nA,ld_sub_percent,ld_gate_percent,ld_btbt_percent,ld_total_percent"
    rows

let mc_csv samples =
  let component_row (c : Report.components) =
    [ f (na c.Report.isub); f (na c.Report.igate); f (na c.Report.ibtbt);
      f (na (Report.total c)) ]
  in
  let rows =
    Array.to_list samples
    |> List.map (fun (s : Monte_carlo.sample) ->
           component_row s.Monte_carlo.loaded
           @ component_row s.Monte_carlo.unloaded)
  in
  buffer_csv
    "loaded_sub_nA,loaded_gate_nA,loaded_btbt_nA,loaded_total_nA,unloaded_sub_nA,unloaded_gate_nA,unloaded_btbt_nA,unloaded_total_nA"
    rows

let pp_per_gate ?(limit = 20) ppf netlist (result : Estimator.result) =
  let ranked = Array.copy result.Estimator.per_gate in
  Array.sort
    (fun (a : Estimator.gate_estimate) b ->
      compare
        (Report.total b.Estimator.with_loading)
        (Report.total a.Estimator.with_loading))
    ranked;
  Format.fprintf ppf "%6s %-7s %-12s %-6s %12s %10s@." "gate" "cell" "net"
    "vector" "total[nA]" "shift[%]";
  Array.iteri
    (fun i (ge : Estimator.gate_estimate) ->
      if i < limit then begin
        let total = Report.total ge.Estimator.with_loading in
        let base = Report.total ge.Estimator.no_loading in
        Format.fprintf ppf "%6d %-7s %-12s %-6s %12.1f %+10.2f@."
          ge.Estimator.gate
          (Gate.name (Netlist.gate_kind netlist ge.Estimator.gate))
          (Netlist.net_name netlist (Netlist.gate_out netlist ge.Estimator.gate))
          (Logic.vector_to_string ge.Estimator.vector)
          (na total)
          (if base = 0.0 then 0.0 else (total -. base) /. base *. 100.0)
      end)
    ranked

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
