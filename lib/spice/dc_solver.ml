module Params = Leakage_device.Params
module Model = Leakage_device.Model

type options = {
  tol_voltage : float;
  max_sweeps : int;
  v_margin : float;
  max_step : float;
}

let default_options = {
  tol_voltage = 1e-9;
  max_sweeps = 200;
  v_margin = 0.3;
  max_step = 0.25;
}

type result = {
  voltages : float array;
  sweeps : int;
  converged : bool;
  max_residual : float;
}

(* One compiled device per distinct (device, polarity, width) of a solve.
   [device_of_gate] may build a fresh device record per call, so devices
   compare structurally. Within one solve devices differ by per-gate
   threshold shifts, which the hash sees through the polarity's [vth0]. *)
module Device_key = Hashtbl.Make (struct
  type t = Params.t * Params.polarity * float

  let equal (d, p, w) (d', p', w') =
    p = p' && Float.equal w w' && (d == d' || d = d')

  let hash (d, p, w) = Hashtbl.hash (w, p, (Params.fet d p).Params.vth0)
end)

(* A compiled network: everything a solve reads that does not change from
   one run to the next, plus the scratch a run works in. Every
   transistor's four terminal currents live in [cur] at slots
   [4 * transistor + terminal], the numbering of [Flatten.touching]; a
   node's KCL residual is its injection plus the slots [touching] lists,
   summed in that order. Within one update every slot it reads is
   evaluated afresh, so nothing in [cur] carries from one update, or one
   run, to the next. *)
type kernel = {
  flat : Flatten.t;
  devices : Model.compiled array;
  nodes : int array;      (* per slot: unknown index, or -1 - level *)
  levels : float array;   (* the fixed nodes' distinct voltages *)
  cur : float array;
  bias : float array;     (* vg, vd, vs, vb of the transistor in hand *)
  comps : float array;
  inj : float array;
  mark : int array;       (* per transistor: stamp of its last evaluation *)
  mutable stamp : int;
  relaxing : int array;   (* per unknown: the last relaxation holding it *)
  mutable relax : int;
  saved_tr : int array;   (* transistors a Jacobian column re-evaluated ... *)
  saved_cur : float array;  (* ... and their currents before it *)
  jac : float array;      (* block Newton: row-major Jacobian ... *)
  perm : int array;       (* ... its LU row order ... *)
  f0 : float array;       (* ... the block's residuals ... *)
  rhs : float array;      (* ... their negation ... *)
  dx : float array;       (* ... and the step *)
  limits : float array;   (* a run's node floor, node ceiling, step clamp *)
  moved : float array;    (* the largest move of the update in hand *)
  mutable evals : int;
  mutable gate_evals : int;
}

let kernel flat =
  let transistors = flat.Flatten.transistors in
  let n_tr = Array.length transistors in
  let table = Device_key.create 16 in
  let devices =
    Array.map
      (fun (tr : Flatten.transistor) ->
        let key = (flat.Flatten.device_of_gate tr.owner, tr.pol, tr.w) in
        match Device_key.find_opt table key with
        | Some k -> k
        | None ->
          let d, pol, w = key in
          let k = Model.compile d pol ~w ~temp:flat.Flatten.temp in
          Device_key.add table key k;
          k)
      transistors
  in
  (* A fixed node's slot names its voltage among the few distinct ones
     (rails and input levels, told apart by their bits), so the slot table
     is one int per terminal. *)
  let levels = ref [||] in
  let level v =
    let rec find i =
      if i = Array.length !levels then begin
        levels := Array.append !levels [| v |];
        i
      end
      else if Int64.equal (Int64.bits_of_float !levels.(i))
                (Int64.bits_of_float v)
      then i
      else find (i + 1)
    in
    find 0
  in
  let nodes = Array.make (4 * n_tr) (-1) in
  Array.iteri
    (fun idx (tr : Flatten.transistor) ->
      List.iteri
        (fun term node ->
          let slot = (4 * idx) + term in
          match node with
          | Flatten.Unknown i -> nodes.(slot) <- i
          | Flatten.Ground | Flatten.Rail | Flatten.Fixed _ ->
            nodes.(slot) <- -1 - level (Flatten.node_voltage flat [||] node))
        [ tr.g; tr.d; tr.s; tr.b ])
    transistors;
  let widest =
    Array.fold_left
      (fun acc slots -> Stdlib.max acc (Array.length slots))
      0 flat.Flatten.touching
  in
  let block =
    Array.fold_left
      (fun acc b -> Stdlib.max acc (Array.length b))
      0 flat.Flatten.blocks
  in
  let n = Stdlib.max 1 flat.Flatten.n_unknowns in
  {
    flat;
    devices;
    nodes;
    levels = !levels;
    cur = Array.make (4 * n_tr) 0.0;
    bias = Array.make 4 0.0;
    comps = Array.make 8 0.0;
    inj = Array.make n 0.0;
    mark = Array.make n_tr 0;
    stamp = 0;
    relaxing = Array.make n 0;
    relax = 0;
    saved_tr = Array.make widest 0;
    saved_cur = Array.make (4 * widest) 0.0;
    jac = Array.make (block * block) 0.0;
    perm = Array.make block 0;
    f0 = Array.make block 0.0;
    rhs = Array.make block 0.0;
    dx = Array.make block 0.0;
    limits = Array.make 3 0.0;
    moved = Array.make 1 0.0;
    evals = 0;
    gate_evals = 0;
  }

let flat_of k = k.flat

let set_gate_device k gate device =
  Array.iteri
    (fun idx (tr : Flatten.transistor) ->
      if tr.owner = gate then
        k.devices.(idx) <- Model.compile device tr.pol ~w:tr.w
                             ~temp:k.flat.Flatten.temp)
    k.flat.Flatten.transistors

(* A run starts from zero counts and the listed injections alone. *)
let reset k injections =
  let n = k.flat.Flatten.n_unknowns in
  Array.fill k.inj 0 (Array.length k.inj) 0.0;
  List.iter
    (fun (i, amps) ->
      if i < 0 || i >= n then
        invalid_arg "Dc_solver: injection at unknown node index";
      k.inj.(i) <- k.inj.(i) +. amps)
    injections;
  k.evals <- 0;
  k.gate_evals <- 0

let[@inline] voltage k x slot =
  let n = k.nodes.(slot) in
  if n >= 0 then x.(n) else k.levels.(-1 - n)

let[@inline] load_bias k x o =
  let b = k.bias in
  b.(0) <- voltage k x o;
  b.(1) <- voltage k x (o + 1);
  b.(2) <- voltage k x (o + 2);
  b.(3) <- voltage k x (o + 3)

let eval_components k x tr c =
  load_bias k x (4 * tr);
  Model.eval k.devices.(tr) k.bias c

let eval_transistor k x tr =
  let o = 4 * tr in
  load_bias k x o;
  Model.eval k.devices.(tr) k.bias k.comps;
  Model.terminals_into k.comps k.cur o;
  k.evals <- k.evals + 1

(* Whether the node at [slot] is an unknown of the block being relaxed. *)
let[@inline] relaxed k slot =
  let n = k.nodes.(slot) in
  n >= 0 && k.relaxing.(n) = k.relax

(* The gate-only rule. A relaxation reads a transistor's slots only at the
   block's unknowns, so a transistor whose drain, source and bulk all lie
   outside the block is read at its gate terminal alone: only its
   tunneling half is evaluated, and only the gate slot is written (the
   other three are read by no residual of this block). Membership is the
   [relaxing] stamp of this relaxation, so an unknown relaxed in several
   blocks (the MTCMOS virtual ground) forces full evaluation in each. *)
let eval_for_block k x tr =
  let o = 4 * tr in
  if relaxed k (o + 1) || relaxed k (o + 2) || relaxed k (o + 3) then
    eval_transistor k x tr
  else begin
    load_bias k x o;
    Model.eval_tunneling k.devices.(tr) k.bias k.comps;
    Model.gate_current_into k.comps k.cur o;
    k.evals <- k.evals + 1;
    k.gate_evals <- k.gate_evals + 1
  end

let eval_all k x =
  for tr = 0 to Array.length k.devices - 1 do
    eval_transistor k x tr
  done

let next_stamp k = k.stamp <- k.stamp + 1

(* Evaluate the transistors attached to unknown [i] that the current stamp
   has not evaluated yet. *)
let eval_touching k x i =
  let slots = k.flat.Flatten.touching.(i) in
  for j = 0 to Array.length slots - 1 do
    let tr = slots.(j) lsr 2 in
    if k.mark.(tr) <> k.stamp then begin
      k.mark.(tr) <- k.stamp;
      eval_for_block k x tr
    end
  done

(* Re-evaluate the transistors attached to unknown [i] after [x.(i)] moved,
   saving their currents first; returns how many [restore] puts back. *)
let perturb k x i =
  next_stamp k;
  let slots = k.flat.Flatten.touching.(i) in
  let saved = ref 0 in
  for j = 0 to Array.length slots - 1 do
    let tr = slots.(j) lsr 2 in
    if k.mark.(tr) <> k.stamp then begin
      k.mark.(tr) <- k.stamp;
      k.saved_tr.(!saved) <- tr;
      Array.blit k.cur (4 * tr) k.saved_cur (4 * !saved) 4;
      incr saved;
      eval_for_block k x tr
    end
  done;
  !saved

let restore k saved =
  for s = 0 to saved - 1 do
    Array.blit k.saved_cur (4 * s) k.cur (4 * k.saved_tr.(s)) 4
  done

let[@inline] residual k i =
  let slots = k.flat.Flatten.touching.(i) in
  let acc = ref (-.k.inj.(i)) in
  for j = 0 to Array.length slots - 1 do
    acc := !acc +. k.cur.(slots.(j))
  done;
  !acc

let max_residual_of k x =
  eval_all k x;
  let worst = ref 0.0 in
  for i = 0 to k.flat.Flatten.n_unknowns - 1 do
    worst := Float.max !worst (abs_float (residual k i))
  done;
  !worst

let[@inline] clamp (lo : float) hi v =
  if v < lo then lo else if v > hi then hi else v

module Tm = Leakage_telemetry.Telemetry

let m_solves = Tm.counter "dc.solves"
let m_sweeps = Tm.counter "dc.sweeps"
let m_evals = Tm.counter "dc.device_evals"
let m_gate_evals = Tm.counter "dc.gate_evals"
let m_nonconverged = Tm.counter "dc.nonconverged"
let h_sweeps = Tm.histogram "dc.sweeps_per_solve"

(* The updates below run on float arrays and return nothing: a float
   returned from a function, or passed to one, would be boxed. [limits]
   holds the run's node floor, node ceiling and step clamp; each update
   leaves its largest voltage move in [moved.(0)]. *)

let fd_h = 1e-7

(* Scalar Newton update for single-unknown blocks (the common case). *)
let update_scalar k x i =
  let v0 = x.(i) in
  next_stamp k;
  eval_touching k x i;
  let f0 = residual k i in
  x.(i) <- v0 +. fd_h;
  next_stamp k;
  eval_touching k x i;
  let f1 = residual k i in
  x.(i) <- v0;
  let g = (f1 -. f0) /. fd_h in
  if g > 0.0 && Float.is_finite g then begin
    let step = k.limits.(2) in
    let dv = clamp (-.step) step (-.f0 /. g) in
    let v' = clamp k.limits.(0) k.limits.(1) (v0 +. dv) in
    x.(i) <- v';
    k.moved.(0) <- abs_float (v' -. v0)
  end
  else k.moved.(0) <- 0.0

(* The block's transistors are evaluated once; a Jacobian column
   re-evaluates only the perturbed unknown's transistors and puts their
   currents back after. The Newton step runs in the kernel's scratch. *)
let update_block k x block =
  let n = Array.length block in
  next_stamp k;
  for j = 0 to n - 1 do
    eval_touching k x block.(j)
  done;
  for r = 0 to n - 1 do
    k.f0.(r) <- residual k block.(r)
  done;
  for j = 0 to n - 1 do
    let i = block.(j) in
    let saved = x.(i) in
    x.(i) <- saved +. fd_h;
    let moved = perturb k x i in
    for r = 0 to n - 1 do
      k.jac.((r * n) + j) <- (residual k block.(r) -. k.f0.(r)) /. fd_h
    done;
    x.(i) <- saved;
    restore k moved
  done;
  for r = 0 to n - 1 do
    k.rhs.(r) <- -.k.f0.(r)
  done;
  match Leakage_numeric.Linalg.lu_solve_in_place ~n k.jac k.perm k.rhs k.dx with
  | () ->
    let step = k.limits.(2) in
    k.moved.(0) <- 0.0;
    for j = 0 to n - 1 do
      let i = block.(j) in
      let dv = clamp (-.step) step k.dx.(j) in
      let v' = clamp k.limits.(0) k.limits.(1) (x.(i) +. dv) in
      k.moved.(0) <- Float.max k.moved.(0) (abs_float (v' -. x.(i)));
      x.(i) <- v'
    done
  | exception Leakage_numeric.Linalg.Singular ->
    (* Fall back to node-at-a-time relaxation for this block. *)
    let biggest = ref 0.0 in
    for j = 0 to n - 1 do
      update_scalar k x block.(j);
      biggest := Float.max !biggest k.moved.(0)
    done;
    k.moved.(0) <- !biggest

(* Gauss–Seidel over per-gate blocks. A series stack's nodes are tied
   together by on-transistor conductances that dwarf their coupling to the
   rest of the circuit, so node-at-a-time relaxation crawls on them; solving
   the handful of unknowns a gate owns as one small Newton system restores
   fast convergence while keeping the sweep linear in circuit size. *)
let run ?(options = default_options) ?(injections = []) k =
  let flat = k.flat in
  reset k injections;
  let x = Array.copy flat.Flatten.initial in
  k.limits.(0) <- -.options.v_margin;
  k.limits.(1) <- flat.Flatten.vdd +. options.v_margin;
  k.limits.(2) <- options.max_step;
  let sweeps = ref 0 in
  let converged = ref (flat.Flatten.n_unknowns = 0) in
  let blocks = flat.Flatten.blocks in
  while (not !converged) && !sweeps < options.max_sweeps do
    incr sweeps;
    let max_update = ref 0.0 in
    for b = 0 to Array.length blocks - 1 do
      let block = blocks.(b) in
      k.relax <- k.relax + 1;
      for j = 0 to Array.length block - 1 do
        k.relaxing.(block.(j)) <- k.relax
      done;
      (match Array.length block with
       | 0 -> k.moved.(0) <- 0.0
       | 1 -> update_scalar k x block.(0)
       | _ -> update_block k x block);
      max_update := Float.max !max_update k.moved.(0)
    done;
    if !max_update < options.tol_voltage then converged := true
  done;
  let max_residual = max_residual_of k x in
  (* Most callers keep only [voltages]; the registry records every solve
     that hit the sweep budget without settling. *)
  if Tm.enabled () then begin
    Tm.incr m_solves;
    Tm.add m_sweeps !sweeps;
    Tm.add m_evals k.evals;
    Tm.add m_gate_evals k.gate_evals;
    Tm.observe h_sweeps (float_of_int !sweeps);
    if not !converged then Tm.incr m_nonconverged
  end;
  { voltages = x; sweeps = !sweeps; converged = !converged; max_residual }

let solve ?options ?injections flat = run ?options ?injections (kernel flat)

let solve_dense ?(injections = []) (flat : Flatten.t) =
  let module Solver = Leakage_numeric.Solver in
  let k = kernel flat in
  reset k injections;
  let n = flat.Flatten.n_unknowns in
  let f x =
    eval_all k x;
    Array.init n (residual k)
  in
  let margin = default_options.v_margin in
  let lower = Array.make n (-.margin) in
  let upper = Array.make n (flat.Flatten.vdd +. margin) in
  (* Residuals live at the nano-amp scale; tolerances must match. *)
  let options =
    { Solver.default_options with
      tol_residual = 1e-18;
      tol_step = 1e-13;
      max_iter = 200 }
  in
  let r = Solver.solve ~options ~lower ~upper ~f flat.Flatten.initial in
  let max_residual = max_residual_of k r.Solver.x in
  if Tm.enabled () then Tm.add m_evals k.evals;
  {
    voltages = r.Solver.x;
    sweeps = r.Solver.iterations;
    converged = r.Solver.converged;
    max_residual;
  }
