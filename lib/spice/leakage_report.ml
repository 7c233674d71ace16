module Params = Leakage_device.Params
module Model = Leakage_device.Model
module Physics = Leakage_device.Physics
module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate

type components = {
  isub : float;
  igate : float;
  ibtbt : float;
}

let zero = { isub = 0.0; igate = 0.0; ibtbt = 0.0 }
let total c = c.isub +. c.igate +. c.ibtbt

let add a b = {
  isub = a.isub +. b.isub;
  igate = a.igate +. b.igate;
  ibtbt = a.ibtbt +. b.ibtbt;
}

let scale k c = { isub = k *. c.isub; igate = k *. c.igate; ibtbt = k *. c.ibtbt }

let pp_components ppf c =
  Format.fprintf ppf "sub=%.2fnA gate=%.2fnA btbt=%.2fnA total=%.2fnA"
    (Physics.amps_to_nanoamps c.isub)
    (Physics.amps_to_nanoamps c.igate)
    (Physics.amps_to_nanoamps c.ibtbt)
    (Physics.amps_to_nanoamps (total c))

type t = {
  per_gate : components array;
  footer : components;
  totals : components;
  vdd_current : float;
  gnd_current : float;
}

(* The pull network that should be non-conducting under the stage's logic
   state: output high means the pull-down is off, and vice versa. *)
let in_off_network (tr : Flatten.transistor) =
  match tr.net_kind with
  | Flatten.Pull_down -> tr.stage_out_logic
  | Flatten.Pull_up -> not tr.stage_out_logic

(* The per-gate component sum: [acc] plus one transistor's contribution,
   from its components [c] as [Model.eval] writes them. Subthreshold counts
   at the off network's transistors next to the stage output (a series
   stack's through-current once); tunneling and junction magnitudes count
   at every device. *)
let add_transistor acc (tr : Flatten.transistor) (c : float array) =
  let isub =
    if in_off_network tr && tr.at_output then abs_float c.(0) else 0.0
  in
  {
    isub = acc.isub +. isub;
    igate =
      acc.igate
      +. (abs_float c.(1) +. abs_float c.(2) +. abs_float c.(3)
          +. abs_float c.(4) +. abs_float c.(5));
    ibtbt = acc.ibtbt +. (abs_float c.(6) +. abs_float c.(7));
  }

let of_solution (flat : Flatten.t) x =
  let n_gates = Netlist.gate_count flat.netlist in
  let per_gate = Array.make n_gates zero in
  let footer = ref zero in
  let vdd_current = ref 0.0 and gnd_current = ref 0.0 in
  let bias = Array.make 4 0.0 and c = Array.make 8 0.0
  and t = Array.make 4 0.0 in
  Array.iter
    (fun (tr : Flatten.transistor) ->
      let v n = Flatten.node_voltage flat x n in
      bias.(0) <- v tr.g;
      bias.(1) <- v tr.d;
      bias.(2) <- v tr.s;
      bias.(3) <- v tr.b;
      Model.eval
        (Model.compile (flat.device_of_gate tr.owner) tr.pol ~w:tr.w
           ~temp:flat.temp)
        bias c;
      if tr.owner >= 0 then
        per_gate.(tr.owner) <- add_transistor per_gate.(tr.owner) tr c
      else footer := add_transistor !footer tr c;
      (* Rail currents for conservation checks. *)
      Model.terminals_into c t 0;
      let rail_contribution node current =
        match node with
        | Flatten.Rail -> vdd_current := !vdd_current +. current
        | Flatten.Ground -> gnd_current := !gnd_current +. current
        | Flatten.Fixed _ | Flatten.Unknown _ -> ()
      in
      rail_contribution tr.g t.(0);
      rail_contribution tr.d t.(1);
      rail_contribution tr.s t.(2);
      rail_contribution tr.b t.(3))
    flat.transistors;
  let totals = add (Array.fold_left add zero per_gate) !footer in
  (* "into terminal" currents at a rail node are exactly what that rail
     supplies; the ground return is their negation on the ground side. *)
  { per_gate; footer = !footer; totals; vdd_current = !vdd_current;
    gnd_current = -. !gnd_current }

let of_gate ?pin_currents k x gate =
  let flat = Dc_solver.flat_of k in
  Option.iter (fun p -> Array.fill p 0 (Array.length p) 0.0) pin_currents;
  let c = Array.make 8 0.0 and t = Array.make 4 0.0 in
  let acc = ref zero in
  Array.iteri
    (fun idx (tr : Flatten.transistor) ->
      if tr.owner = gate then begin
        Dc_solver.eval_components k x idx c;
        acc := add_transistor !acc tr c;
        match pin_currents with
        | Some p when tr.gate_pin >= 0 ->
          Model.terminals_into c t 0;
          p.(tr.gate_pin) <- p.(tr.gate_pin) +. t.(0)
        | Some _ | None -> ()
      end)
    flat.transistors;
  !acc

let analyze ?device_of_gate ?options ~device ~temp ?vdd netlist pattern =
  let assignment = Simulate.run netlist pattern in
  let flat = Flatten.flatten ?device_of_gate ~device ~temp ?vdd netlist assignment in
  let result = Dc_solver.solve ?options flat in
  (of_solution flat result.Dc_solver.voltages, result, flat)
