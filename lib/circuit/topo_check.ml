(* Kahn's algorithm (CLRS topological sort, the paper's reference [11]).

   The core reads the netlist's CSR storage directly: gate [g]'s fan-in
   nets are [pins.{pin_off.{g}} .. pins.{pin_off.{g+1} - 1}], its output
   [out_net.{g}]. Consumer edges are kept in a CSR layout whose slices are
   filled back to front, so walking a slice forward visits its consumers in
   descending scan order — the queue order, and with it the emitted
   topological order, of the historical list-based implementation (which
   prepended while scanning gates in ascending order and then iterated
   head-first). *)

module Ba = Bigarray.Array1

type int_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Ba.t

(* Consumer CSR: [edges.(off.(d)) .. edges.(off.(d+1) - 1)] are the gates
   reading driver [d]'s output, one per pin, and [indegree.(g)] counts
   [g]'s gate-fed pins. [None] when a pin names an out-of-range or
   undriven net. *)
let prepare_flat ~net_count ~n_gates ~source_nets ~(pin_off : int_arr)
    ~(pins : int_arr) ~(out_net : int_arr) =
  let net_driver = Array.make net_count (-2) in
  Array.iter (fun n -> net_driver.(n) <- -1) source_nets;
  for g = 0 to n_gates - 1 do
    net_driver.(Ba.get out_net g) <- g
  done;
  (* [off.(d)] first counts driver [d]'s consumer pins. *)
  let off = Array.make (n_gates + 1) 0 in
  let indegree = Array.make n_gates 0 in
  let ok = ref true in
  for g = 0 to n_gates - 1 do
    for k = Ba.get pin_off g to Ba.get pin_off (g + 1) - 1 do
      let net = Ba.get pins k in
      if net < 0 || net >= net_count then ok := false
      else
        match net_driver.(net) with
        | -2 -> ok := false (* undriven *)
        | -1 -> ()          (* source *)
        | d ->
          off.(d) <- off.(d) + 1;
          indegree.(g) <- indegree.(g) + 1
    done
  done;
  if not !ok then None
  else begin
    (* Running sums turn each count into the end of its slice; the count
       array is then the fill cursor, stepping down to the slice's start,
       where the fill leaves it. *)
    for d = 1 to n_gates - 1 do
      off.(d) <- off.(d - 1) + off.(d)
    done;
    if n_gates > 0 then off.(n_gates) <- off.(n_gates - 1);
    let edges = Array.make (Stdlib.max 1 off.(n_gates)) 0 in
    for g = 0 to n_gates - 1 do
      for k = Ba.get pin_off g to Ba.get pin_off (g + 1) - 1 do
        match net_driver.(Ba.get pins k) with
        | -1 -> ()
        | d ->
          off.(d) <- off.(d) - 1;
          edges.(off.(d)) <- g
      done
    done;
    Some (off, edges, indegree)
  end

let sort_flat ~net_count ~n_gates ~source_nets ~pin_off ~pins ~out_net =
  match
    prepare_flat ~net_count ~n_gates ~source_nets ~pin_off ~pins ~out_net
  with
  | None -> None
  | Some (off, edges, indegree) ->
    (* [order] is its own FIFO queue: a gate is emitted in the order it
       becomes ready, so [order.(head .. tail - 1)] is the queue. *)
    let order = Array.make n_gates 0 in
    let tail = ref 0 in
    for g = 0 to n_gates - 1 do
      if indegree.(g) = 0 then begin
        order.(!tail) <- g;
        incr tail
      end
    done;
    let head = ref 0 in
    while !head < !tail do
      let g = order.(!head) in
      incr head;
      for k = off.(g) to off.(g + 1) - 1 do
        let c = edges.(k) in
        indegree.(c) <- indegree.(c) - 1;
        if indegree.(c) = 0 then begin
          order.(!tail) <- c;
          incr tail
        end
      done
    done;
    if !tail = n_gates then Some order else None

let levelize_flat ~net_count ~n_gates ~source_nets ~pin_off ~pins ~out_net =
  match
    sort_flat ~net_count ~n_gates ~source_nets ~pin_off ~pins ~out_net
  with
  | None -> None
  | Some order ->
    let net_level = Array.make net_count 0 in
    let gate_level = Array.make n_gates 0 in
    Array.iter
      (fun g ->
        let lvl = ref 0 in
        for k = Ba.get pin_off g to Ba.get pin_off (g + 1) - 1 do
          let l = net_level.(Ba.get pins k) in
          if l > !lvl then lvl := l
        done;
        let lvl = !lvl + 1 in
        gate_level.(g) <- lvl;
        net_level.(Ba.get out_net g) <- lvl)
      order;
    Some gate_level
