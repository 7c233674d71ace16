let levels t =
  match Netlist.levelize t with
  | Some l -> l
  | None -> failwith ("Topo.levels: cycle in " ^ Netlist.name t)

let net_levels t =
  let gate_levels = levels t in
  let nl = Array.make (Netlist.net_count t) 0 in
  for g = 0 to Netlist.gate_count t - 1 do
    nl.(Netlist.gate_out t g) <- gate_levels.(g)
  done;
  nl
