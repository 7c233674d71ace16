(* Kahn's algorithm (CLRS topological sort, the paper's reference [11]).

   The core works over accessor functions so struct-of-arrays callers can
   feed pins straight out of flat storage without materializing a per-gate
   [net array]. Consumer edges are kept in a CSR layout; each consumer
   slice is walked in reverse so the queue order — and with it the emitted
   topological order — is bit-identical to the historical list-based
   implementation (which prepended while scanning gates in ascending order
   and then iterated head-first). *)

let prepare_flat ~net_count ~n_gates ~source_nets ~fanin_count ~fanin
    ~gate_out =
  let net_driver = Array.make net_count (-2) in
  Array.iter (fun n -> net_driver.(n) <- -1) source_nets;
  for g = 0 to n_gates - 1 do
    net_driver.(gate_out g) <- g
  done;
  (* consumer edges driver-gate -> reading-gate; indegree counts
     gate-feeding pins only. *)
  let degree = Array.make (n_gates + 1) 0 in
  let indegree = Array.make n_gates 0 in
  let ok = ref true in
  for g = 0 to n_gates - 1 do
    for p = 0 to fanin_count g - 1 do
      let net = fanin g p in
      if net < 0 || net >= net_count then ok := false
      else
        match net_driver.(net) with
        | -2 -> ok := false (* undriven *)
        | -1 -> ()          (* source *)
        | d ->
          degree.(d) <- degree.(d) + 1;
          indegree.(g) <- indegree.(g) + 1
    done
  done;
  if not !ok then None
  else begin
    let off = Array.make (n_gates + 1) 0 in
    for g = 0 to n_gates - 1 do
      off.(g + 1) <- off.(g) + degree.(g)
    done;
    let fill = Array.make n_gates 0 in
    let edges = Array.make (Stdlib.max 1 off.(n_gates)) 0 in
    for g = 0 to n_gates - 1 do
      for p = 0 to fanin_count g - 1 do
        let net = fanin g p in
        match net_driver.(net) with
        | -1 -> ()
        | d ->
          edges.(off.(d) + fill.(d)) <- g;
          fill.(d) <- fill.(d) + 1
      done
    done;
    Some (off, edges, indegree)
  end

let sort_flat ~net_count ~n_gates ~source_nets ~fanin_count ~fanin ~gate_out =
  match
    prepare_flat ~net_count ~n_gates ~source_nets ~fanin_count ~fanin
      ~gate_out
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
      (* reverse slice order: see header comment *)
      for k = off.(g + 1) - 1 downto off.(g) do
        let c = edges.(k) in
        indegree.(c) <- indegree.(c) - 1;
        if indegree.(c) = 0 then begin
          order.(!tail) <- c;
          incr tail
        end
      done
    done;
    if !tail = n_gates then Some order else None

let levelize_flat ~net_count ~n_gates ~source_nets ~fanin_count ~fanin
    ~gate_out =
  match
    sort_flat ~net_count ~n_gates ~source_nets ~fanin_count ~fanin ~gate_out
  with
  | None -> None
  | Some order ->
    let net_level = Array.make net_count 0 in
    let gate_level = Array.make n_gates 0 in
    Array.iter
      (fun g ->
        let lvl = ref 0 in
        for p = 0 to fanin_count g - 1 do
          let l = net_level.(fanin g p) in
          if l > !lvl then lvl := l
        done;
        let lvl = !lvl + 1 in
        gate_level.(g) <- lvl;
        net_level.(gate_out g) <- lvl)
      order;
    Some gate_level
