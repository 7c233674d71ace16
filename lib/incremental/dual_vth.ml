module Netlist = Leakage_circuit.Netlist
module Topo = Leakage_circuit.Topo
module Report = Leakage_spice.Leakage_report

type assignment = bool array

(* Longest unit-delay path through each gate = its depth from the inputs
   plus the longest tail from its output to any primary output; a gate is
   timing-noncritical when that through-path sits well below the circuit
   depth, so slowing it cannot create a new critical path. *)
let slack_assignment ~critical_margin netlist =
  if critical_margin < 0 then
    invalid_arg "Dual_vth.slack_assignment: negative margin";
  let levels = Topo.levels netlist in
  let order = Netlist.topo_ids netlist in
  let n_gates = Netlist.gate_count netlist in
  let tail = Array.make n_gates 0 in
  (* reverse topological pass over gates *)
  for i = Array.length order - 1 downto 0 do
    let g = order.(i) in
    let downstream = ref 0 in
    Netlist.iter_fanout netlist (Netlist.gate_out netlist g) (fun consumer ->
        downstream := Stdlib.max !downstream (tail.(consumer) + 1));
    tail.(g) <- !downstream
  done;
  let depth = Array.fold_left Stdlib.max 0 levels in
  Array.init n_gates (fun id ->
      levels.(id) + tail.(id) < depth - critical_margin)

type evaluation = {
  assignment : assignment;
  n_high : int;
  totals : Report.components;
  baseline : Report.components;
  reduction_percent : float;
}

let relib_edits ~high_lib assignment =
  let edits = ref [] in
  for id = Array.length assignment - 1 downto 0 do
    if assignment.(id) then edits := Edit.Relib (id, high_lib) :: !edits
  done;
  !edits

let evaluation_of assignment ~totals ~baseline =
  {
    assignment;
    n_high = Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 assignment;
    totals;
    baseline;
    reduction_percent =
      (Report.total baseline -. Report.total totals)
      /. Report.total baseline *. 100.0;
  }

let evaluate ?pool ~low_lib ~high_lib assignment netlist pattern =
  if Array.length assignment <> Netlist.gate_count netlist then
    invalid_arg "Dual_vth.evaluate: assignment size mismatch";
  let session = Incremental.create low_lib netlist pattern in
  let baseline = Incremental.totals session in
  Incremental.apply_batch ?pool session (relib_edits ~high_lib assignment);
  evaluation_of assignment ~totals:(Incremental.totals session) ~baseline

let greedy_assignment ?candidates ?(min_gain_percent = 0.0) ~low_lib ~high_lib
    netlist pattern =
  let n_gates = Netlist.gate_count netlist in
  let candidates =
    match candidates with
    | Some c ->
      if Array.length c <> n_gates then
        invalid_arg "Dual_vth.greedy_assignment: candidates size mismatch";
      c
    | None -> slack_assignment ~critical_margin:1 netlist
  in
  let session = Incremental.create low_lib netlist pattern in
  let baseline = Incremental.totals session in
  let accepted = Array.make n_gates false in
  for id = 0 to n_gates - 1 do
    if candidates.(id) then begin
      let before = Report.total (Incremental.totals session) in
      let cp = Incremental.checkpoint session in
      Incremental.apply session (Edit.Relib (id, high_lib));
      let after = Report.total (Incremental.totals session) in
      if before -. after >= min_gain_percent /. 100.0 *. before then
        accepted.(id) <- true
      else Incremental.rollback session cp
    end
  done;
  evaluation_of accepted ~totals:(Incremental.totals session) ~baseline

let high_vth_device ?(shift = 0.08) device =
  let d = Leakage_device.Params.with_vth_shift device shift in
  { d with Leakage_device.Params.name = d.Leakage_device.Params.name ^ "-HVT" }
