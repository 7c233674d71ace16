module Rng = Leakage_numeric.Rng
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report

type search_result = {
  vector : Logic.vector;
  total : float;
}

let session_total ~use_loading session =
  if use_loading then Report.total (Incremental.totals session)
  else Report.total (Incremental.baseline_totals session)

let better a b = if b.total < a.total then b else a

let exhaustive ?(use_loading = true) lib netlist =
  let width = Array.length (Netlist.inputs netlist) in
  if width > 20 then
    invalid_arg "Vector_control.exhaustive: too many inputs (> 20)";
  let v0 = Logic.vector_of_int ~width 0 in
  let session = Incremental.create lib netlist v0 in
  let best = ref { vector = v0; total = session_total ~use_loading session } in
  for n = 1 to (1 lsl width) - 1 do
    let v = Logic.vector_of_int ~width n in
    Incremental.set_vector session v;
    best := better !best { vector = v; total = session_total ~use_loading session }
  done;
  !best

let random_search ?(use_loading = true) ~rng ~samples lib netlist =
  if samples <= 0 then invalid_arg "Vector_control.random_search: samples";
  let width = Array.length (Netlist.inputs netlist) in
  let first = Logic.random_vector rng width in
  let session = Incremental.create lib netlist first in
  let best = ref { vector = first; total = session_total ~use_loading session } in
  for _ = 2 to samples do
    let v = Logic.random_vector rng width in
    Incremental.set_vector session v;
    best := better !best { vector = v; total = session_total ~use_loading session }
  done;
  !best

let max_rounds = 64

let greedy_descent ?(use_loading = true) lib netlist ~start =
  let inputs = Netlist.inputs netlist in
  let session = Incremental.create lib netlist start in
  let flip v i =
    let v' = Array.copy v in
    v'.(i) <- Logic.lnot v'.(i);
    v'
  in
  let current =
    ref { vector = Array.copy start; total = session_total ~use_loading session }
  in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < max_rounds do
    incr rounds;
    improved := false;
    let best_here = ref !current in
    for i = 0 to Array.length start - 1 do
      (* speculate the single-bit flip, read the objective, revert *)
      let cp = Incremental.checkpoint session in
      let bit = Logic.lnot !current.vector.(i) in
      Incremental.apply session (Edit.Set_input (inputs.(i), bit = Logic.One));
      let trial =
        { vector = flip !current.vector i;
          total = session_total ~use_loading session }
      in
      Incremental.rollback session cp;
      best_here := better !best_here trial
    done;
    if !best_here.total < !current.total then begin
      current := !best_here;
      Incremental.set_vector session !best_here.vector;
      improved := true
    end
  done;
  !current

type comparison = {
  with_loading : search_result;
  without_loading : search_result;
  without_under_loading : float;
  changed : bool;
}

let compare_objectives ?(samples = 256) ?(seed = 7) lib netlist =
  let width = Array.length (Netlist.inputs netlist) in
  let search ~use_loading =
    if width <= 14 then exhaustive ~use_loading lib netlist
    else begin
      let rng = Rng.create seed in
      let r = random_search ~use_loading ~rng ~samples lib netlist in
      greedy_descent ~use_loading lib netlist ~start:r.vector
    end
  in
  let with_loading = search ~use_loading:true in
  let without_loading = search ~use_loading:false in
  let without_under_loading =
    let session = Incremental.create lib netlist without_loading.vector in
    Report.total (Incremental.totals session)
  in
  {
    with_loading;
    without_loading;
    without_under_loading;
    changed = with_loading.vector <> without_loading.vector;
  }
