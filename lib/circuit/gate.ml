type kind =
  | Inv
  | Buf
  | Nand of int
  | Nor of int
  | And of int
  | Or of int
  | Xor
  | Xnor
  | Aoi21
  | Aoi22
  | Oai21
  | Oai22

let check_fanin label n =
  if n < 2 || n > 4 then
    invalid_arg (Printf.sprintf "Gate: %s%d unsupported (fan-in 2-4)" label n)

let arity = function
  | Inv | Buf -> 1
  | Nand n -> check_fanin "NAND" n; n
  | Nor n -> check_fanin "NOR" n; n
  | And n -> check_fanin "AND" n; n
  | Or n -> check_fanin "OR" n; n
  | Xor | Xnor -> 2
  | Aoi21 | Oai21 -> 3
  | Aoi22 | Oai22 -> 4

let name = function
  | Inv -> "INV"
  | Buf -> "BUF"
  | Nand n -> Printf.sprintf "NAND%d" n
  | Nor n -> Printf.sprintf "NOR%d" n
  | And n -> Printf.sprintf "AND%d" n
  | Or n -> Printf.sprintf "OR%d" n
  | Xor -> "XOR2"
  | Xnor -> "XNOR2"
  | Aoi21 -> "AOI21"
  | Aoi22 -> "AOI22"
  | Oai21 -> "OAI21"
  | Oai22 -> "OAI22"

let of_name s =
  match String.uppercase_ascii s with
  | "INV" | "NOT" -> Inv
  | "BUF" | "BUFF" -> Buf
  | "XOR" | "XOR2" -> Xor
  | "XNOR" | "XNOR2" -> Xnor
  | "AOI21" -> Aoi21
  | "AOI22" -> Aoi22
  | "OAI21" -> Oai21
  | "OAI22" -> Oai22
  | u ->
    let sized prefix mk =
      let plen = String.length prefix in
      if String.length u = plen + 1 && String.sub u 0 plen = prefix then
        match int_of_string_opt (String.sub u plen 1) with
        | Some n when n >= 2 && n <= 4 -> Some (mk n)
        | _ -> None
      else None
    in
    let candidates =
      [ sized "NAND" (fun n -> Nand n);
        sized "NOR" (fun n -> Nor n);
        sized "AND" (fun n -> And n);
        sized "OR" (fun n -> Or n) ]
    in
    (match List.find_opt Option.is_some candidates with
     | Some (Some k) -> k
     | _ -> invalid_arg (Printf.sprintf "Gate.of_name: unknown cell %S" s))

let code = function
  | Inv -> 0
  | Buf -> 1
  | Xor -> 2
  | Xnor -> 3
  | Nand n -> 4 + n
  | Nor n -> 12 + n
  | And n -> 20 + n
  | Or n -> 28 + n
  | Aoi21 -> 36
  | Aoi22 -> 37
  | Oai21 -> 38
  | Oai22 -> 39

let all_kinds =
  [ Inv; Buf; Xor; Xnor; Aoi21; Aoi22; Oai21; Oai22 ]
  @ List.concat_map
      (fun n -> [ Nand n; Nor n; And n; Or n ])
      [ 2; 3; 4 ]

let max_code = 39

(* Inverse of [code], memoized so struct-of-arrays consumers can turn a
   stored code back into a kind without allocating (Nand/Nor/... carry an
   argument and would otherwise box on every lookup). *)
let kind_of_code_table =
  let t = Array.make (max_code + 1) None in
  List.iter (fun k -> t.(code k) <- Some k) all_kinds;
  t

let of_code c =
  if c < 0 || c > max_code then
    invalid_arg (Printf.sprintf "Gate.of_code: %d out of range" c)
  else
    match kind_of_code_table.(c) with
    | Some k -> k
    | None -> invalid_arg (Printf.sprintf "Gate.of_code: %d unassigned" c)

let eval kind inputs =
  let n = arity kind in
  if Array.length inputs <> n then
    invalid_arg
      (Printf.sprintf "Gate.eval: %s expects %d inputs, got %d" (name kind) n
         (Array.length inputs));
  let conj () = Array.for_all Fun.id inputs in
  let disj () = Array.exists Fun.id inputs in
  match kind with
  | Inv -> not inputs.(0)
  | Buf -> inputs.(0)
  | Nand _ -> not (conj ())
  | And _ -> conj ()
  | Nor _ -> not (disj ())
  | Or _ -> disj ()
  | Xor -> inputs.(0) <> inputs.(1)
  | Xnor -> inputs.(0) = inputs.(1)
  | Aoi21 -> not ((inputs.(0) && inputs.(1)) || inputs.(2))
  | Aoi22 -> not ((inputs.(0) && inputs.(1)) || (inputs.(2) && inputs.(3)))
  | Oai21 -> not ((inputs.(0) || inputs.(1)) && inputs.(2))
  | Oai22 -> not ((inputs.(0) || inputs.(1)) && (inputs.(2) || inputs.(3)))

let eval_logic kind v =
  Logic.of_bool (eval kind (Array.map Logic.to_bool v))

(* Same boolean function as [eval], but reads only the first [arity kind]
   entries of [buf] — so one max-arity scratch buffer serves every gate of a
   simulation sweep with zero per-gate allocation. *)
let eval_prefix kind (buf : bool array) =
  let conj n =
    let ok = ref true in
    for i = 0 to n - 1 do
      if not buf.(i) then ok := false
    done;
    !ok
  in
  let disj n =
    let any = ref false in
    for i = 0 to n - 1 do
      if buf.(i) then any := true
    done;
    !any
  in
  match kind with
  | Inv -> not buf.(0)
  | Buf -> buf.(0)
  | Nand n -> not (conj n)
  | And n -> conj n
  | Nor n -> not (disj n)
  | Or n -> disj n
  | Xor -> buf.(0) <> buf.(1)
  | Xnor -> buf.(0) = buf.(1)
  | Aoi21 -> not ((buf.(0) && buf.(1)) || buf.(2))
  | Aoi22 -> not ((buf.(0) && buf.(1)) || (buf.(2) && buf.(3)))
  | Oai21 -> not ((buf.(0) || buf.(1)) && buf.(2))
  | Oai22 -> not ((buf.(0) || buf.(1)) && (buf.(2) || buf.(3)))

type network_tree =
  | Leaf of int
  | Series of network_tree list
  | Parallel of network_tree list

let rec dual = function
  | Leaf i -> Leaf i
  | Series ts -> Parallel (List.map dual ts)
  | Parallel ts -> Series (List.map dual ts)

let rec tree_depth = function
  | Leaf _ -> 1
  | Series ts -> List.fold_left (fun acc t -> acc + tree_depth t) 0 ts
  | Parallel ts -> List.fold_left (fun acc t -> Stdlib.max acc (tree_depth t)) 1 ts

let rec tree_conducts tree values =
  match tree with
  | Leaf i -> values.(i)
  | Series ts -> List.for_all (fun t -> tree_conducts t values) ts
  | Parallel ts -> List.exists (fun t -> tree_conducts t values) ts

type stage_kind =
  | Stage_inv
  | Stage_nand
  | Stage_nor
  | Stage_complex of network_tree

type pin =
  | Cell_input of int
  | Internal of int

type stage_out =
  | Cell_output
  | Internal_out of int

type stage = {
  stage_kind : stage_kind;
  stage_inputs : pin array;
  stage_output : stage_out;
}

type cell = {
  kind : kind;
  stages : stage array;
  internal_count : int;
}

let stage sk ins out = { stage_kind = sk; stage_inputs = ins; stage_output = out }

let cell_inputs n = Array.init n (fun i -> Cell_input i)

let decompose kind =
  let n = arity kind in
  let stages =
    match kind with
    | Inv -> [| stage Stage_inv [| Cell_input 0 |] Cell_output |]
    | Buf ->
      [| stage Stage_inv [| Cell_input 0 |] (Internal_out 0);
         stage Stage_inv [| Internal 0 |] Cell_output |]
    | Nand _ -> [| stage Stage_nand (cell_inputs n) Cell_output |]
    | Nor _ -> [| stage Stage_nor (cell_inputs n) Cell_output |]
    | And _ ->
      [| stage Stage_nand (cell_inputs n) (Internal_out 0);
         stage Stage_inv [| Internal 0 |] Cell_output |]
    | Or _ ->
      [| stage Stage_nor (cell_inputs n) (Internal_out 0);
         stage Stage_inv [| Internal 0 |] Cell_output |]
    | Xor ->
      (* Four-NAND XOR: t = (ab)'; out = ((a t)'(b t)')'. *)
      [| stage Stage_nand [| Cell_input 0; Cell_input 1 |] (Internal_out 0);
         stage Stage_nand [| Cell_input 0; Internal 0 |] (Internal_out 1);
         stage Stage_nand [| Cell_input 1; Internal 0 |] (Internal_out 2);
         stage Stage_nand [| Internal 1; Internal 2 |] Cell_output |]
    | Xnor ->
      [| stage Stage_nand [| Cell_input 0; Cell_input 1 |] (Internal_out 0);
         stage Stage_nand [| Cell_input 0; Internal 0 |] (Internal_out 1);
         stage Stage_nand [| Cell_input 1; Internal 0 |] (Internal_out 2);
         stage Stage_nand [| Internal 1; Internal 2 |] (Internal_out 3);
         stage Stage_inv [| Internal 3 |] Cell_output |]
    | Aoi21 ->
      [| stage
           (Stage_complex (Parallel [ Series [ Leaf 0; Leaf 1 ]; Leaf 2 ]))
           (cell_inputs 3) Cell_output |]
    | Aoi22 ->
      [| stage
           (Stage_complex
              (Parallel [ Series [ Leaf 0; Leaf 1 ]; Series [ Leaf 2; Leaf 3 ] ]))
           (cell_inputs 4) Cell_output |]
    | Oai21 ->
      [| stage
           (Stage_complex (Series [ Parallel [ Leaf 0; Leaf 1 ]; Leaf 2 ]))
           (cell_inputs 3) Cell_output |]
    | Oai22 ->
      [| stage
           (Stage_complex
              (Series [ Parallel [ Leaf 0; Leaf 1 ]; Parallel [ Leaf 2; Leaf 3 ] ]))
           (cell_inputs 4) Cell_output |]
  in
  let internal_count =
    Array.fold_left
      (fun acc s ->
        match s.stage_output with
        | Cell_output -> acc
        | Internal_out i -> Stdlib.max acc (i + 1))
      0 stages
  in
  { kind; stages; internal_count }

let stage_eval sk inputs =
  match sk with
  | Stage_inv -> not inputs.(0)
  | Stage_nand -> not (Array.for_all Fun.id inputs)
  | Stage_nor -> not (Array.exists Fun.id inputs)
  | Stage_complex tree -> not (tree_conducts tree inputs)

(* Minimum inverter: Wn = 1 µm, Wp = 2 µm. Series stacks are upsized by the
   stack depth so each stage has roughly inverter-equivalent drive. *)
let nmos_width sk fan_in =
  match sk with
  | Stage_inv -> 1.0
  | Stage_nand -> float_of_int fan_in
  | Stage_nor -> 1.0
  | Stage_complex tree -> float_of_int (tree_depth tree)

let pmos_width sk fan_in =
  match sk with
  | Stage_inv -> 2.0
  | Stage_nand -> 2.0
  | Stage_nor -> 2.0 *. float_of_int fan_in
  | Stage_complex tree -> 2.0 *. float_of_int (tree_depth (dual tree))

let transistor_count kind =
  let c = decompose kind in
  Array.fold_left
    (fun acc s -> acc + (2 * Array.length s.stage_inputs))
    0 c.stages
