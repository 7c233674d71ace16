module Worklist = struct
  type t = {
    priority : int array;
    heap : int array;
    mutable size : int;
    queued : bool array;
  }

  let create ~priority =
    let n = Array.length priority in
    {
      priority;
      heap = Array.make (Stdlib.max n 1) 0;
      size = 0;
      queued = Array.make n false;
    }

  let less t a b = t.priority.(t.heap.(a)) < t.priority.(t.heap.(b))

  let swap t i j =
    let x = t.heap.(i) in
    t.heap.(i) <- t.heap.(j);
    t.heap.(j) <- x

  let push t id =
    if id < 0 || id >= Array.length t.queued then
      invalid_arg "Cone.Worklist.push: id out of range";
    if not t.queued.(id) then begin
      t.queued.(id) <- true;
      t.heap.(t.size) <- id;
      t.size <- t.size + 1;
      (* sift up *)
      let i = ref (t.size - 1) in
      while !i > 0 && less t !i ((!i - 1) / 2) do
        swap t !i ((!i - 1) / 2);
        i := (!i - 1) / 2
      done
    end

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      t.heap.(0) <- t.heap.(t.size);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && less t l !smallest then smallest := l;
        if r < t.size && less t r !smallest then smallest := r;
        if !smallest <> !i then begin
          swap t !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      t.queued.(top) <- false;
      Some top
    end
end

module Partition = struct
  module Gate = Leakage_circuit.Gate
  module Logic = Leakage_circuit.Logic
  module Netlist = Leakage_circuit.Netlist

  type cone = { gates : int list; nets : int list }

  type state = {
    values : Logic.value array;
    kinds : Gate.kind array;
  }

  (* Over-approximation of everything one edit's propagation may read or
     write. Without a [state] it is derived from the netlist structure
     alone; with one it is additionally pruned by the pre-batch settled
     values (see [prune] below). Either way the cone never depends on edit
     order within the batch or on session-internal scratch state, so group
     shapes stay order-independent.

     Attribute edits (Resize/Relib) keep the gate's logic function, so only
     the gate's own characterization entry can change: the write set is the
     gate, its fan-in nets (injection deltas) and, through those nets'
     loading, the sideways neighbours (driver + fanout of each net) that get
     re-looked-up. Logic-changing edits (Retype/Set_input) can flip values
     through the whole structural downstream closure, and every gate in that
     closure can change its entry, so the sideways expansion applies to each
     closure gate.

     The sideways set also covers the read set: a gate's re-lookup reads the
     injections on its own nets, and any gate that could write one of those
     injections is a consumer of the net — which this construction places in
     the same cone. Two edits whose cones share no gate and no net therefore
     touch disjoint session state, which is what makes running their groups
     on separate domains race-free and order-insensitive. *)

  (* Value-aware pruning context, shared by every cone of one batch.

     The descent may stop at a gate whose output provably cannot flip: some
     stable side input pins it — e.g. a controlling 0 into AND/NAND or 1
     into OR/NOR, generalized exactly by {!Gate.pinned_output} to any
     pinning value combination. "Stable" must
     be a batch-wide notion: a pin is only held at its settled value if NO
     edit in the batch can reach it, i.e. the net is outside [may_flip] —
     the union of the structural downstream closures of every Retype /
     Set_input edit (per-edit stability would let two edits jointly flip
     through a cut that each alone could not, breaking group disjointness).
     Gates the batch retypes are never pruned at: their logic function is
     not the pre-batch one.

     Because [may_flip] is a function of (netlist, batch-as-a-set) and the
     settled values/kinds are read before any edit is staged, the pruned
     cones — hence the groups — are the same for any edit order within the
     batch and any job count, preserving the determinism contract above in
     refined form: a function of (netlist, batch, pre-batch settled
     state). *)
  type prune = {
    st : state;
    may_flip : bool array; (* net -> some batch edit's propagation may flip it *)
    retyped : bool array;  (* gate -> the batch retypes it: never prune there *)
  }

  let check_gate ~n_gates g =
    if g < 0 || g >= n_gates then
      invalid_arg (Printf.sprintf "Cone.Partition: unknown gate id %d" g)

  let check_net ~n_nets m =
    if m < 0 || m >= n_nets then
      invalid_arg (Printf.sprintf "Cone.Partition: unknown net %d" m)

  let make_prune nl st (edits : Edit.t array) =
    let n_gates = Netlist.gate_count nl in
    let n_nets = Netlist.net_count nl in
    if Array.length st.values <> n_nets then
      invalid_arg "Cone.Partition: state.values length differs from net count";
    if Array.length st.kinds <> n_gates then
      invalid_arg "Cone.Partition: state.kinds length differs from gate count";
    let may_flip = Array.make n_nets false in
    let retyped = Array.make n_gates false in
    let visited = Array.make n_gates false in
    let stack = ref [] in
    let push g_id =
      if not visited.(g_id) then begin
        visited.(g_id) <- true;
        stack := g_id :: !stack
      end
    in
    Array.iter
      (fun (edit : Edit.t) ->
        match edit with
        | Edit.Resize _ | Edit.Relib _ -> ()
        | Edit.Retype (g, _) ->
          check_gate ~n_gates g;
          retyped.(g) <- true;
          push g
        | Edit.Set_input (m, _) ->
          check_net ~n_nets m;
          may_flip.(m) <- true;
          Netlist.iter_fanout nl m push)
      edits;
    let rec drain () =
      match !stack with
      | [] -> ()
      | g_id :: rest ->
        stack := rest;
        let out = Netlist.gate_out nl g_id in
        may_flip.(out) <- true;
        Netlist.iter_fanout nl out push;
        drain ()
    in
    drain ();
    { st; may_flip; retyped }

  (* Can this gate's output change under the batch? Exact within the
     may-flip abstraction: enumerate the may-flip pins, hold the stable
     pins at their settled values. *)
  let output_can_flip p nl g_id =
    p.retyped.(g_id)
    ||
    let arity = Netlist.gate_arity nl g_id in
    let inputs =
      Array.init arity (fun i ->
          Logic.to_bool p.st.values.(Netlist.gate_pin nl g_id i))
    in
    let free =
      Array.init arity (fun i -> p.may_flip.(Netlist.gate_pin nl g_id i))
    in
    Gate.pinned_output p.st.kinds.(g_id) ~free inputs = None

  let cone_into ?prune nl ~gate_seen ~net_seen edit =
    let n_gates = Netlist.gate_count nl in
    let gates = ref [] and nets = ref [] in
    let add_gate g =
      if not gate_seen.(g) then begin
        gate_seen.(g) <- true;
        gates := g :: !gates
      end
    in
    let add_net m =
      if not net_seen.(m) then begin
        net_seen.(m) <- true;
        nets := m :: !nets
      end
    in
    (* Downstream closure, recorded so sideways expansion can walk it
       afterwards (gate_seen doubles as the visited marker). Iterative with
       an explicit stack — the old recursive walk overflowed on chains a few
       tens of thousands of gates deep. Children are pushed in reverse
       fanout order so the visit order matches the recursive preorder
       exactly. A pruned gate (output provably cannot flip under the batch)
       still joins the closure — its input vector, and with it its
       characterization entry and injections, may change — but nothing past
       it can, so the descent stops there. *)
    let closure = ref [] in
    let stack = ref [] in
    (* Pushing consumers in reverse pin order leaves the first consumer on
       top of the stack, so the pop order matches the historical recursive
       preorder over the ascending fanout list exactly. *)
    let descend g_id =
      Netlist.rev_iter_fanout nl (Netlist.gate_out nl g_id) (fun c ->
          stack := c :: !stack)
    in
    let visit g_id =
      if not gate_seen.(g_id) then begin
        add_gate g_id;
        closure := g_id :: !closure;
        match prune with
        | None -> descend g_id
        | Some p -> if output_can_flip p nl g_id then descend g_id
      end
    in
    let down g_id =
      stack := g_id :: !stack;
      let rec walk () =
        match !stack with
        | [] -> ()
        | g_id :: rest ->
          stack := rest;
          visit g_id;
          walk ()
      in
      walk ()
    in
    let sideways g_id =
      add_net (Netlist.gate_out nl g_id);
      Netlist.iter_pins nl g_id (fun _pin m ->
          add_net m;
          let d = Netlist.driver_id nl m in
          if d >= 0 then add_gate d;
          Netlist.iter_fanout nl m add_gate)
    in
    (match (edit : Edit.t) with
     | Edit.Resize (g, _) | Edit.Relib (g, _) ->
       check_gate ~n_gates g;
       add_gate g;
       sideways g
     | Edit.Retype (g, _) ->
       check_gate ~n_gates g;
       down g;
       List.iter sideways !closure
     | Edit.Set_input (m, _) ->
       check_net ~n_nets:(Netlist.net_count nl) m;
       add_net m;
       Netlist.iter_fanout nl m down;
       List.iter sideways !closure);
    { gates = List.rev !gates; nets = List.rev !nets }

  let cones ?state nl edits =
    Netlist.warm nl;
    let prune = Option.map (fun st -> make_prune nl st edits) state in
    let gate_seen = Array.make (Netlist.gate_count nl) false in
    let net_seen = Array.make (Netlist.net_count nl) false in
    Array.map
      (fun edit ->
        let c = cone_into ?prune nl ~gate_seen ~net_seen edit in
        List.iter (fun g -> gate_seen.(g) <- false) c.gates;
        List.iter (fun m -> net_seen.(m) <- false) c.nets;
        c)
      edits

  let cone ?state nl edit = (cones ?state nl [| edit |]).(0)

  let groups_of nl cones =
    let n = Array.length cones in
    if n = 0 then [||]
    else begin
      let n_gates = Netlist.gate_count nl in
      let n_nets = Netlist.net_count nl in
      (* union-find over edit indices; union keeps the smaller index as the
         root, so a component's root is its first edit in batch order. Find
         is an iterative path-halving walk — the recursive path-compressing
         one could overflow on adversarial union chains. *)
      let parent = Array.init n (fun i -> i) in
      let find i =
        let i = ref i in
        while parent.(!i) <> !i do
          parent.(!i) <- parent.(parent.(!i));
          i := parent.(!i)
        done;
        !i
      in
      let union a b =
        let ra = find a and rb = find b in
        if ra <> rb then
          if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
      in
      let claim_gate = Array.make n_gates (-1) in
      let claim_net = Array.make n_nets (-1) in
      for e = 0 to n - 1 do
        List.iter
          (fun g ->
            if claim_gate.(g) >= 0 then union e claim_gate.(g);
            claim_gate.(g) <- e)
          cones.(e).gates;
        List.iter
          (fun m ->
            if claim_net.(m) >= 0 then union e claim_net.(m);
            claim_net.(m) <- e)
          cones.(e).nets
      done;
      (* bucket by root; roots ascend with their first edit, members keep
         batch order within each group *)
      let members = Array.make n [] in
      for e = n - 1 downto 0 do
        let r = find e in
        members.(r) <- e :: members.(r)
      done;
      let out = ref [] in
      for r = n - 1 downto 0 do
        if members.(r) <> [] then out := Array.of_list members.(r) :: !out
      done;
      Array.of_list !out
    end

  let groups ?state nl edits = groups_of nl (cones ?state nl edits)
end

module Dirty_set = struct
  type t = {
    flags : bool array;
    mutable members : int list; (* reversed insertion order *)
    mutable count : int;
  }

  let create n = { flags = Array.make n false; members = []; count = 0 }

  let add t id =
    if id < 0 || id >= Array.length t.flags then
      invalid_arg "Cone.Dirty_set.add: id out of range";
    if not t.flags.(id) then begin
      t.flags.(id) <- true;
      t.members <- id :: t.members;
      t.count <- t.count + 1
    end

  let iter f t =
    (* Walk insertion order; pick up elements added by [f] in further
       rounds until the set stops growing. *)
    let seen = ref 0 in
    let rec go () =
      let fresh = t.count - !seen in
      if fresh > 0 then begin
        let batch = List.filteri (fun i _ -> i < fresh) t.members in
        seen := t.count;
        List.iter f (List.rev batch);
        go ()
      end
    in
    go ()

  let clear t =
    List.iter (fun id -> t.flags.(id) <- false) t.members;
    t.members <- [];
    t.count <- 0
end
