module Params = Leakage_device.Params
module Netlist = Leakage_circuit.Netlist
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic

type node =
  | Ground
  | Rail
  | Fixed of float
  | Unknown of int

type network = Pull_up | Pull_down

type sleep_spec = {
  sleep_width : float;
  sleep_on : bool;
}

type transistor = {
  pol : Params.polarity;
  w : float;
  g : node;
  d : node;
  s : node;
  b : node;
  owner : int;
  stage : int;
  net_kind : network;
  at_output : bool;
  gate_pin : int;
  gate_logic : bool;
  stage_out_logic : bool;
}

type t = {
  netlist : Netlist.t;
  device_of_gate : int -> Params.t;
  temp : float;
  vdd : float;
  transistors : transistor array;
  n_unknowns : int;
  net_node : node array;
  initial : float array;
  blocks : int array array;
  touching : int array array;
  vgnd : int option;
}

let node_voltage t x = function
  | Ground -> 0.0
  | Rail -> t.vdd
  | Fixed v -> v
  | Unknown i -> x.(i)

let virtual_ground t = t.vgnd

let unknown_of_net t net =
  match t.net_node.(net) with
  | Unknown i -> Some i
  | Ground | Rail | Fixed _ -> None

(* Mutable accumulation used only during flattening. *)
type building = {
  mutable count : int;
  mutable inits : float list;       (* reversed *)
  mutable trans : transistor list;  (* reversed *)
}

let fresh_unknown bld init =
  let id = bld.count in
  bld.count <- id + 1;
  bld.inits <- init :: bld.inits;
  id

let flatten ?device_of_gate ?sleep ~device ~temp ?vdd netlist assignment =
  let vdd = Option.value vdd ~default:device.Params.vdd in
  let device_of_gate =
    let base = Option.value device_of_gate ~default:(fun (_ : int) -> device) in
    (* the MTCMOS footer (owner -1) always uses the die device *)
    fun id -> if id < 0 then device else base id
  in
  if Array.length assignment <> Netlist.net_count netlist then
    invalid_arg "Flatten.flatten: assignment size mismatch";
  let bld = { count = 0; inits = []; trans = [] } in
  (* MTCMOS: allocate the shared virtual-ground node before anything else.
     Cell pull-down networks return to it; bodies stay on the true ground
     rail, as in a standard footer-switch implementation. *)
  let vgnd =
    Option.map
      (fun spec ->
        ignore spec.sleep_width;
        fresh_unknown bld (if spec.sleep_on then 0.0 else 0.05))
      sleep
  in
  let pdn_rail =
    match vgnd with Some i -> Unknown i | None -> Ground
  in
  let net_node = Array.make (Netlist.net_count netlist) Ground in
  let rail_of_logic v = if Logic.to_bool v then vdd else 0.0 in
  (* Primary-input nets are ideal sources; all driven nets are unknowns,
     allocated in topological order so Gauss-Seidel sweeps run with the
     signal flow. *)
  Array.iter
    (fun n -> net_node.(n) <- Fixed (rail_of_logic assignment.(n)))
    (Netlist.inputs netlist);
  let topo_gates = Netlist.topo_ids netlist in
  (* Pre-create output-net unknowns in topo order, then walk gates again to
     expand cells (cell internals sit next to their gate's output). *)
  Array.iter
    (fun g_id ->
      let out = Netlist.gate_out netlist g_id in
      let init = rail_of_logic assignment.(out) in
      net_node.(out) <- Unknown (fresh_unknown bld init))
    topo_gates;
  let expand_gate g_id =
    let g_out = Netlist.gate_out netlist g_id in
    let g_strength = Netlist.gate_strength netlist g_id in
    let block = ref [] in
    let record_unknown = function
      | Unknown i -> block := i :: !block
      | Ground | Rail | Fixed _ -> ()
    in
    record_unknown net_node.(g_out);
    let fresh_block_unknown init =
      let i = fresh_unknown bld init in
      block := i :: !block;
      i
    in
    let cell = Gate.decompose (Netlist.gate_kind netlist g_id) in
    let pin_logic =
      Array.init (Netlist.gate_arity netlist g_id) (fun p ->
          Logic.to_bool assignment.(Netlist.gate_pin netlist g_id p))
    in
    (* Logic value per internal cell net, in stage order (stages are listed
       so that a stage's inputs are produced by earlier stages). *)
    let internal_logic = Array.make cell.internal_count false in
    let internal_node = Array.make cell.internal_count Ground in
    let pin_value = function
      | Gate.Cell_input i -> pin_logic.(i)
      | Gate.Internal i -> internal_logic.(i)
    in
    let pin_node = function
      | Gate.Cell_input i -> net_node.(Netlist.gate_pin netlist g_id i)
      | Gate.Internal i -> internal_node.(i)
    in
    let pin_index = function
      | Gate.Cell_input i -> i
      | Gate.Internal _ -> -1
    in
    Array.iteri
      (fun stage_idx (st : Gate.stage) ->
        let ins = Array.map pin_value st.stage_inputs in
        let out_logic = Gate.stage_eval st.stage_kind ins in
        let out_node =
          match st.stage_output with
          | Gate.Cell_output -> net_node.(g_out)
          | Gate.Internal_out i ->
            internal_logic.(i) <- out_logic;
            let init = if out_logic then vdd else 0.0 in
            let u = Unknown (fresh_block_unknown init) in
            internal_node.(i) <- u;
            u
        in
        let k = Array.length st.stage_inputs in
        let wn = Gate.nmos_width st.stage_kind k *. g_strength in
        let wp = Gate.pmos_width st.stage_kind k *. g_strength in
        let add pol ~w ~dn ~sn ~bn ~pin ~net_kind ~at_output =
          bld.trans <-
            {
              pol;
              w;
              g = pin_node pin;
              d = dn;
              s = sn;
              b = bn;
              owner = g_id;
              stage = stage_idx;
              net_kind;
              at_output;
              gate_pin = pin_index pin;
              gate_logic = pin_value pin;
              stage_out_logic = out_logic;
            }
            :: bld.trans
        in
        (match st.stage_kind with
         | Gate.Stage_inv ->
           let pin = st.stage_inputs.(0) in
           add Params.Nmos ~w:wn ~dn:out_node ~sn:pdn_rail ~bn:Ground
             ~pin ~net_kind:Pull_down ~at_output:true;
           add Params.Pmos ~w:wp ~dn:out_node ~sn:Rail ~bn:Rail ~pin
             ~net_kind:Pull_up ~at_output:true
         | Gate.Stage_nand ->
           (* Series NMOS chain from the output down to ground (pin 0 at the
              top), parallel PMOS. Stack nodes start at the ground rail. *)
           let chain =
             Array.init (k + 1) (fun i ->
                 if i = 0 then out_node
                 else if i = k then pdn_rail
                 else Unknown (fresh_block_unknown 0.0))
           in
           Array.iteri
             (fun i pin ->
               add Params.Nmos ~w:wn ~dn:chain.(i) ~sn:chain.(i + 1)
                 ~bn:Ground ~pin ~net_kind:Pull_down ~at_output:(i = 0);
               add Params.Pmos ~w:wp ~dn:out_node ~sn:Rail ~bn:Rail
                 ~pin ~net_kind:Pull_up ~at_output:true)
             st.stage_inputs
         | Gate.Stage_nor ->
           (* Parallel NMOS, series PMOS chain from the output up to the rail
              (pin 0 nearest the output). *)
           let chain =
             Array.init (k + 1) (fun i ->
                 if i = 0 then out_node
                 else if i = k then Rail
                 else Unknown (fresh_block_unknown vdd))
           in
           Array.iteri
             (fun i pin ->
               add Params.Nmos ~w:wn ~dn:out_node ~sn:pdn_rail
                 ~bn:Ground ~pin ~net_kind:Pull_down ~at_output:true;
               add Params.Pmos ~w:wp ~dn:chain.(i) ~sn:chain.(i + 1)
                 ~bn:Rail ~pin ~net_kind:Pull_up ~at_output:(i = 0))
             st.stage_inputs
         | Gate.Stage_complex tree ->
           (* Generic static-CMOS stage: expand the series/parallel
              pull-down between the output and ground, and its dual
              pull-up between the output and the rail. Transistors whose
              drain side sits on the stage output are the attribution
              points for off-network subthreshold current. *)
           let rec expand pol ~w ~bn ~net_kind ~init tree top bottom =
             match tree with
             | Gate.Leaf i ->
               add pol ~w ~dn:top ~sn:bottom ~bn
                 ~pin:st.stage_inputs.(i) ~net_kind
                 ~at_output:(top = out_node)
             | Gate.Parallel parts ->
               List.iter
                 (fun p -> expand pol ~w ~bn ~net_kind ~init p top bottom)
                 parts
             | Gate.Series parts ->
               let count = List.length parts in
               let mids =
                 Array.init (Stdlib.max 0 (count - 1)) (fun _ ->
                     Unknown (fresh_block_unknown init))
               in
               List.iteri
                 (fun idx part ->
                   let hi = if idx = 0 then top else mids.(idx - 1) in
                   let lo = if idx = count - 1 then bottom else mids.(idx) in
                   expand pol ~w ~bn ~net_kind ~init part hi lo)
                 parts
           in
           expand Params.Nmos ~w:wn ~bn:Ground ~net_kind:Pull_down ~init:0.0
             tree out_node pdn_rail;
           expand Params.Pmos ~w:wp ~bn:Rail ~net_kind:Pull_up ~init:vdd
             (Gate.dual tree) out_node Rail))
      cell.stages;
    Array.of_list (List.rev !block)
  in
  let blocks = Array.map expand_gate topo_gates in
  (* The footer switch itself, plus a trailing relaxation block for the
     virtual-ground node (it couples to every gated cell, so it is revisited
     once per sweep after the cells). *)
  let blocks =
    match sleep, vgnd with
    | Some spec, Some vgnd_id ->
      bld.trans <-
        {
          pol = Params.Nmos;
          w = spec.sleep_width;
          g = Fixed (if spec.sleep_on then vdd else 0.0);
          d = Unknown vgnd_id;
          s = Ground;
          b = Ground;
          owner = -1;
          stage = 0;
          net_kind = Pull_down;
          at_output = true;
          gate_pin = -1;
          gate_logic = spec.sleep_on;
          stage_out_logic = not spec.sleep_on;
        }
        :: bld.trans;
      (* The virtual ground couples to every gated cell; relaxing it only
         once per sweep makes the global equilibrium crawl. Interleave its
         singleton block through the gate sweep so each pass moves the node
         together with the cells it feeds. *)
      let interleaved = ref [ [| vgnd_id |] ] in
      Array.iteri
        (fun i block ->
          interleaved := block :: !interleaved;
          if i mod 16 = 15 then interleaved := [| vgnd_id |] :: !interleaved)
        blocks;
      interleaved := [| vgnd_id |] :: !interleaved;
      Array.of_list (List.rev !interleaved)
    | _ -> blocks
  in
  let transistors = Array.of_list (List.rev bld.trans) in
  let n_unknowns = bld.count in
  let touching = Array.make (Stdlib.max 1 n_unknowns) [] in
  let touch node slot =
    match node with
    | Unknown i -> touching.(i) <- slot :: touching.(i)
    | Ground | Rail | Fixed _ -> ()
  in
  Array.iteri
    (fun idx tr ->
      touch tr.g (4 * idx);
      touch tr.d ((4 * idx) + 1);
      touch tr.s ((4 * idx) + 2);
      touch tr.b ((4 * idx) + 3))
    transistors;
  let touching = Array.map Array.of_list touching in
  {
    netlist;
    device_of_gate;
    temp;
    vdd;
    transistors;
    n_unknowns;
    net_node;
    initial = Array.of_list (List.rev bld.inits);
    blocks;
    touching;
    vgnd;
  }
