type assignment = Logic.value array

let run_into t pattern values =
  let pis = Netlist.inputs t in
  if Array.length pattern <> Array.length pis then
    invalid_arg
      (Printf.sprintf "Simulate.run: %d inputs expected, pattern has %d"
         (Array.length pis) (Array.length pattern));
  if Array.length values <> Netlist.net_count t then
    invalid_arg
      (Printf.sprintf "Simulate.run_into: %d nets expected, buffer has %d"
         (Netlist.net_count t) (Array.length values));
  Array.iteri (fun i n -> values.(n) <- pattern.(i)) pis;
  (* One max-arity scratch buffer serves the whole sweep: no per-gate
     allocation, no gate records — just flat int-indexed reads. *)
  let buf = Array.make 4 false in
  Array.iter
    (fun g ->
      let arity = Netlist.gate_arity t g in
      for p = 0 to arity - 1 do
        buf.(p) <- Logic.to_bool values.(Netlist.gate_pin t g p)
      done;
      values.(Netlist.gate_out t g) <-
        Logic.of_bool (Gate.eval_prefix (Netlist.gate_kind t g) buf))
    (Netlist.topo_ids t)

let run t pattern =
  let values = Array.make (Netlist.net_count t) Logic.Zero in
  run_into t pattern values;
  values

let outputs t assignment =
  Array.map (fun n -> assignment.(n)) (Netlist.outputs t)

let random_patterns rng t n =
  let width = Array.length (Netlist.inputs t) in
  List.init n (fun _ -> Logic.random_vector rng width)
