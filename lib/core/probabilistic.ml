module Netlist = Leakage_circuit.Netlist
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Report = Leakage_spice.Leakage_report

let gate_state_distribution kind pin_probs =
  let arity = Gate.arity kind in
  if Array.length pin_probs <> arity then
    invalid_arg "Probabilistic.gate_state_distribution: arity mismatch";
  List.map
    (fun vector ->
      let p = ref 1.0 in
      Array.iteri
        (fun i v ->
          p := !p *. (match v with
                      | Logic.One -> pin_probs.(i)
                      | Logic.Zero -> 1.0 -. pin_probs.(i)))
        vector;
      (vector, !p))
    (Logic.all_vectors arity)

let propagate ?input_probability netlist =
  let pis = Netlist.inputs netlist in
  let input_probability =
    match input_probability with
    | Some p ->
      if Array.length p <> Array.length pis then
        invalid_arg "Probabilistic.propagate: input probability size mismatch";
      Array.iter
        (fun v ->
          if not (v >= 0.0 && v <= 1.0) then
            invalid_arg "Probabilistic.propagate: probability outside [0,1]")
        p;
      p
    | None -> Array.make (Array.length pis) 0.5
  in
  let prob = Array.make (Netlist.net_count netlist) 0.0 in
  Array.iteri (fun i net -> prob.(net) <- input_probability.(i)) pis;
  Array.iter
    (fun g ->
      let kind = Netlist.gate_kind netlist g in
      let pin_probs =
        Array.init (Netlist.gate_arity netlist g) (fun p ->
            prob.(Netlist.gate_pin netlist g p))
      in
      let p_one =
        List.fold_left
          (fun acc (vector, p) ->
            if Logic.to_bool (Gate.eval_logic kind vector) then acc +. p
            else acc)
          0.0
          (gate_state_distribution kind pin_probs)
      in
      prob.(Netlist.gate_out netlist g) <- p_one)
    (Netlist.topo_ids netlist);
  prob

type expectation = {
  totals : Report.components;
  baseline_totals : Report.components;
  net_probability : float array;
  net_injection : float array;
}

let expected_leakage ?input_probability lib netlist =
  let prob = propagate ?input_probability netlist in
  let n_gates = Netlist.gate_count netlist in
  (* per gate: the state distribution and its characterization entries *)
  let distributions =
    Array.init n_gates (fun g ->
        let kind = Netlist.gate_kind netlist g in
        let pin_probs =
          Array.init (Netlist.gate_arity netlist g) (fun p ->
              prob.(Netlist.gate_pin netlist g p))
        in
        gate_state_distribution kind pin_probs
        |> List.filter (fun (_, p) -> p > 1e-12)
        |> List.map (fun (vector, p) ->
               ( p,
                 Library.entry
                   ~strength:(Netlist.gate_strength netlist g)
                   lib kind vector )))
  in
  (* expected injection per net from the state-weighted pin currents *)
  let net_injection = Array.make (Netlist.net_count netlist) 0.0 in
  let expected_pin g_id pin =
    List.fold_left
      (fun acc (p, (e : Characterize.entry)) ->
        acc +. (p *. e.Characterize.pin_injection.(pin)))
      0.0 distributions.(g_id)
  in
  for g = 0 to n_gates - 1 do
    Netlist.iter_pins netlist g (fun pin net ->
        net_injection.(net) <- net_injection.(net) +. expected_pin g pin)
  done;
  let totals = ref Report.zero and baseline = ref Report.zero in
  let wiring = Estimator.wiring netlist in
  let out = Array.make 3 0.0 in
  for g = 0 to n_gates - 1 do
    let loading = Array.make (Netlist.gate_arity netlist g + 1) 0.0 in
    List.iter
      (fun (p, (e : Characterize.entry)) ->
        ignore
          (Estimator.gate_leakage wiring g e ~net_injection
             ~own:e.Characterize.pin_injection ~loading ~out);
        let with_loading =
          { Report.isub = out.(0); igate = out.(1); ibtbt = out.(2) }
        in
        totals := Report.add !totals (Report.scale p with_loading);
        baseline :=
          Report.add !baseline (Report.scale p e.Characterize.nominal_isolated))
      distributions.(g)
  done;
  {
    totals = !totals;
    baseline_totals = !baseline;
    net_probability = prob;
    net_injection;
  }
