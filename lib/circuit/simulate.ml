module Ba = Bigarray.Array1

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
  for i = 0 to Array.length pis - 1 do
    values.(pis.(i)) <- pattern.(i)
  done;
  (* Each gate packs its pin values into an int, pin 0 most significant,
     and reads its output from the kind's truth table: flat CSR reads, no
     per-gate allocation or closure. *)
  let r = Netlist.Repr.to_raw t in
  let kind_code = r.Netlist.Repr.r_kind_code
  and pin_off = r.Netlist.Repr.r_pin_off
  and pins = r.Netlist.Repr.r_pins
  and out_net = r.Netlist.Repr.r_out_net in
  let order = Netlist.topo_ids t in
  for k = 0 to Array.length order - 1 do
    let g = order.(k) in
    let bits = ref 0 in
    for j = Ba.get pin_off g to Ba.get pin_off (g + 1) - 1 do
      bits :=
        (!bits lsl 1)
        lor (match values.(Ba.get pins j) with Logic.Zero -> 0 | Logic.One -> 1)
    done;
    values.(Ba.get out_net g) <-
      (if (Gate.truth (Ba.get kind_code g) lsr !bits) land 1 = 1 then Logic.One
       else Logic.Zero)
  done

let run t pattern =
  let values = Array.make (Netlist.net_count t) Logic.Zero in
  run_into t pattern values;
  values

let outputs t assignment =
  Array.map (fun n -> assignment.(n)) (Netlist.outputs t)

let random_patterns rng t n =
  let width = Array.length (Netlist.inputs t) in
  List.init n (fun _ -> Logic.random_vector rng width)
