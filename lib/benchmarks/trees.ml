module B = Leakage_circuit.Netlist.Builder
module Gate = Leakage_circuit.Gate

let parity ?(width = 16) () =
  if width < 2 then invalid_arg "Trees.parity: width must be at least 2";
  let b = B.create (Printf.sprintf "parity%d" width) in
  let inputs =
    Array.init width (fun i -> B.input ~name:(Printf.sprintf "i%d" i) b)
  in
  (* balanced reduction: pair adjacent nets until one remains *)
  let rec reduce nets =
    match nets with
    | [ single ] -> single
    | _ ->
      let rec pair = function
        | x :: y :: rest -> B.gate b Gate.Xor [| x; y |] :: pair rest
        | leftovers -> leftovers
      in
      reduce (pair nets)
  in
  let out = reduce (Array.to_list inputs) in
  B.mark_output b out;
  B.finish b

let parity_reference bits = Array.fold_left ( <> ) false bits

let chain ?(stages = 1024) ?(tap_every = 0) () =
  if stages < 1 then invalid_arg "Trees.chain: stages must be positive";
  if tap_every < 0 then invalid_arg "Trees.chain: tap_every must be >= 0";
  let b = B.create (Printf.sprintf "chain%d" stages) in
  let head = B.input ~name:"head" b in
  let prev = ref head in
  for i = 0 to stages - 1 do
    let out =
      if tap_every > 0 && i mod tap_every = 0 then begin
        (* gateway stage: its dedicated tap input at 0 is a controlling
           value into the NAND, pinning the segment boundary *)
        let tap = B.input ~name:(Printf.sprintf "tap%d" (i / tap_every)) b in
        B.gate b (Gate.Nand 2) [| !prev; tap |]
      end
      else B.gate b Gate.Inv [| !prev |]
    in
    prev := out
  done;
  B.mark_output b !prev;
  B.finish b

let decoder ?(select_bits = 4) () =
  if select_bits < 2 || select_bits > 6 then
    invalid_arg "Trees.decoder: select_bits outside [2,6]";
  let b = B.create (Printf.sprintf "decoder%d" select_bits) in
  let selects =
    Array.init select_bits (fun i -> B.input ~name:(Printf.sprintf "s%d" i) b)
  in
  let inverted = Array.map (fun s -> B.gate b Gate.Inv [| s |]) selects in
  (* AND tree over the literals of each output (4-wide chunks) *)
  let rec and_tree nets =
    match nets with
    | [ single ] -> single
    | _ ->
      let rec chunk = function
        | a :: b' :: c :: d :: rest ->
          B.gate b (Gate.And 4) [| a; b'; c; d |] :: chunk rest
        | a :: b' :: c :: rest -> B.gate b (Gate.And 3) [| a; b'; c |] :: chunk rest
        | a :: b' :: rest -> B.gate b (Gate.And 2) [| a; b' |] :: chunk rest
        | leftovers -> leftovers
      in
      and_tree (chunk nets)
  in
  for code = 0 to (1 lsl select_bits) - 1 do
    let literals =
      List.init select_bits (fun bit ->
          if code lsr bit land 1 = 1 then selects.(bit) else inverted.(bit))
    in
    B.mark_output b (and_tree literals)
  done;
  B.finish b

let decoder_reference ~select_bits:_ code = code

let mux_tree ?(select_bits = 3) () =
  if select_bits < 1 || select_bits > 6 then
    invalid_arg "Trees.mux_tree: select_bits outside [1,6]";
  let b = B.create (Printf.sprintf "mux%d" (1 lsl select_bits)) in
  let n_data = 1 lsl select_bits in
  let data =
    Array.init n_data (fun i -> B.input ~name:(Printf.sprintf "d%d" i) b)
  in
  let selects =
    Array.init select_bits (fun i -> B.input ~name:(Printf.sprintf "s%d" i) b)
  in
  (* level l halves the candidates using select bit l *)
  let current = ref (Array.to_list data) in
  for level = 0 to select_bits - 1 do
    let rec pair = function
      | x :: y :: rest -> Adders.mux2 b ~sel:selects.(level) x y :: pair rest
      | [] -> []
      | [ _ ] -> invalid_arg "Trees.mux_tree: odd level width"
    in
    current := pair !current
  done;
  (match !current with
   | [ out ] -> B.mark_output b out
   | _ -> assert false);
  B.finish b

let mux_reference ~select_bits ~data ~select =
  let mask = (1 lsl (1 lsl select_bits)) - 1 in
  (data land mask) lsr select land 1 = 1
