let keywords = [
  "module"; "endmodule"; "input"; "output"; "inout"; "wire"; "reg"; "assign";
  "and"; "or"; "nand"; "nor"; "xor"; "xnor"; "not"; "buf"; "always"; "begin";
  "end"; "if"; "else"; "case"; "endcase"; "for"; "while"; "signed"; "integer";
]

let sanitize_identifier s =
  let mangled =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      s
  in
  let mangled = if mangled = "" then "n" else mangled in
  let mangled =
    match mangled.[0] with
    | '0' .. '9' -> "n" ^ mangled
    | _ -> mangled
  in
  if List.mem mangled keywords then mangled ^ "_" else mangled

(* Unique sanitized name per net: collisions get _2, _3, ... *)
let name_table t =
  let used = Hashtbl.create 97 in
  let names = Array.make (Netlist.net_count t) "" in
  for net = 0 to Netlist.net_count t - 1 do
    let base = sanitize_identifier (Netlist.net_name t net) in
    let rec unique candidate k =
      if Hashtbl.mem used candidate then
        unique (Printf.sprintf "%s_%d" base k) (k + 1)
      else candidate
    in
    let final = unique base 2 in
    Hashtbl.replace used final ();
    names.(net) <- final
  done;
  names

let to_string t =
  let module_name = sanitize_identifier (Netlist.name t) in
  let names = name_table t in
  let buf = Buffer.create 4096 in
  let inputs = Array.to_list (Netlist.inputs t) in
  let outputs = Array.to_list (Netlist.outputs t) in
  let ports = List.map (fun n -> names.(n)) (inputs @ outputs) in
  Buffer.add_string buf
    (Printf.sprintf "module %s(%s);\n" module_name (String.concat ", " ports));
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  input %s;\n" names.(n)))
    inputs;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  output %s;\n" names.(n)))
    outputs;
  (* wires: every gate-driven net that is not a port *)
  for g = 0 to Netlist.gate_count t - 1 do
    let out = Netlist.gate_out t g in
    if not (Netlist.is_output t out) then
      Buffer.add_string buf (Printf.sprintf "  wire %s;\n" names.(out))
  done;
  Buffer.add_char buf '\n';
  let counter = ref 0 in
  let instance prim out args =
    incr counter;
    Buffer.add_string buf
      (Printf.sprintf "  %s g%d(%s, %s);\n" prim !counter out
         (String.concat ", " args))
  in
  for g = 0 to Netlist.gate_count t - 1 do
    let out = names.(Netlist.gate_out t g) in
    let pin i = names.(Netlist.gate_pin t g i) in
    let args = List.init (Netlist.gate_arity t g) pin in
    let helper i = Printf.sprintf "%s_t%d" out i in
    let declare_helper i =
      Buffer.add_string buf (Printf.sprintf "  wire %s;\n" (helper i))
    in
    (match Netlist.gate_kind t g with
      | Gate.Inv -> instance "not" out args
      | Gate.Buf -> instance "buf" out args
      | Gate.Nand _ -> instance "nand" out args
      | Gate.Nor _ -> instance "nor" out args
      | Gate.And _ -> instance "and" out args
      | Gate.Or _ -> instance "or" out args
      | Gate.Xor -> instance "xor" out args
      | Gate.Xnor -> instance "xnor" out args
      | Gate.Aoi21 ->
        declare_helper 0;
        instance "and" (helper 0) [ pin 0; pin 1 ];
        instance "nor" out [ helper 0; pin 2 ]
      | Gate.Aoi22 ->
        declare_helper 0;
        declare_helper 1;
        instance "and" (helper 0) [ pin 0; pin 1 ];
        instance "and" (helper 1) [ pin 2; pin 3 ];
        instance "nor" out [ helper 0; helper 1 ]
      | Gate.Oai21 ->
        declare_helper 0;
        instance "or" (helper 0) [ pin 0; pin 1 ];
        instance "nand" out [ helper 0; pin 2 ]
      | Gate.Oai22 ->
        declare_helper 0;
        declare_helper 1;
        instance "or" (helper 0) [ pin 0; pin 1 ];
        instance "or" (helper 1) [ pin 2; pin 3 ];
        instance "nand" out [ helper 0; helper 1 ])
  done;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))
