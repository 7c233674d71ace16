type entry = {
  label : string;
  build : unit -> Leakage_circuit.Netlist.t;
}

let iscas name = { label = name; build = (fun () -> Iscas.generate_by_name name) }

let all =
  [
    iscas "s838";
    iscas "s1196";
    iscas "s1423";
    iscas "s5378";
    iscas "s9234";
    iscas "s13207";
    { label = "alu88"; build = (fun () -> Alu8.build ()) };
    { label = "mult88"; build = (fun () -> Mult8.build ()) };
  ]

let names = List.map (fun e -> e.label) all

let find label =
  match List.find_opt (fun e -> e.label = label) all with
  | Some e -> e
  | None ->
    failwith
      (Printf.sprintf "unknown circuit %s (known: %s)" label
         (String.concat ", " names))

module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Rng = Leakage_numeric.Rng
module Report = Leakage_spice.Leakage_report
module Pool = Leakage_parallel.Pool

type run = {
  label : string;
  gates : int;
  loaded : Report.components;
  baseline : Report.components;
  shift_percent : float;
}

let estimate_all ?pool ?(entries = all) ?(vectors = 10) ?(seed = 7) lib =
  if vectors <= 0 then invalid_arg "Suite.estimate_all: vectors must be positive";
  let entries = Array.of_list entries in
  (* One independent stream per circuit, split in suite order, so each
     circuit draws the same vectors regardless of scheduling. *)
  let rng = Rng.create seed in
  let streams = Array.map (fun _ -> Rng.split rng) entries in
  Pool.map ?pool (Array.length entries) (fun i ->
      let e = entries.(i) in
      let netlist = e.build () in
      let width = Array.length (Netlist.inputs netlist) in
      let rng = streams.(i) in
      let vs =
        List.init vectors (fun _ -> Logic.random_vector rng width)
      in
      (* Inner averaging stays sequential: the suite fans out per circuit. *)
      let loaded, baseline =
        Leakage_core.Estimator.average_over_vectors lib netlist vs
      in
      let lt = Report.total loaded and bt = Report.total baseline in
      {
        label = e.label;
        gates = Netlist.gate_count netlist;
        loaded;
        baseline;
        shift_percent = (lt -. bt) /. bt *. 100.0;
      })
