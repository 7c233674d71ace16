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

let injection_array flat injections =
  let inj = Array.make (Stdlib.max 1 flat.Flatten.n_unknowns) 0.0 in
  List.iter
    (fun (i, amps) ->
      if i < 0 || i >= flat.Flatten.n_unknowns then
        invalid_arg "Dc_solver: injection at unknown node index";
      inj.(i) <- inj.(i) +. amps)
    injections;
  inj

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

(* Per-solve evaluation state. Every transistor's four terminal currents
   live in [cur] at slots [4 * transistor + terminal], the numbering of
   [Flatten.touching]; a node's KCL residual is its injection plus the
   slots [touching] lists, summed in that order. A transistor is evaluated
   when one of its nodes may have moved, never once per terminal. *)
type kernel = {
  flat : Flatten.t;
  devices : Model.compiled array;
  nodes : int array;      (* per slot: unknown index, or -1 for a fixed node *)
  fixed : float array;    (* per slot: the fixed node's voltage *)
  cur : float array;
  bias : float array;     (* vg, vd, vs, vb of the transistor in hand *)
  comps : float array;
  inj : float array;
  mark : int array;       (* per transistor: stamp of its last evaluation *)
  mutable stamp : int;
  saved_tr : int array;   (* transistors a Jacobian column re-evaluated ... *)
  saved_cur : float array;  (* ... and their currents before it *)
  mutable evals : int;
}

let kernel flat injections =
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
  let nodes = Array.make (4 * n_tr) (-1) in
  let fixed = Array.make (4 * n_tr) 0.0 in
  Array.iteri
    (fun idx (tr : Flatten.transistor) ->
      List.iteri
        (fun term node ->
          let slot = (4 * idx) + term in
          match node with
          | Flatten.Unknown i -> nodes.(slot) <- i
          | Flatten.Ground | Flatten.Rail | Flatten.Fixed _ ->
            fixed.(slot) <- Flatten.node_voltage flat [||] node)
        [ tr.g; tr.d; tr.s; tr.b ])
    transistors;
  let widest =
    Array.fold_left
      (fun acc slots -> Stdlib.max acc (Array.length slots))
      0 flat.Flatten.touching
  in
  {
    flat;
    devices;
    nodes;
    fixed;
    cur = Array.make (4 * n_tr) 0.0;
    bias = Array.make 4 0.0;
    comps = Array.make 8 0.0;
    inj = injection_array flat injections;
    mark = Array.make n_tr 0;
    stamp = 0;
    saved_tr = Array.make widest 0;
    saved_cur = Array.make (4 * widest) 0.0;
    evals = 0;
  }

let[@inline] voltage k x slot =
  let n = k.nodes.(slot) in
  if n >= 0 then x.(n) else k.fixed.(slot)

let eval_transistor k x tr =
  let o = 4 * tr in
  let b = k.bias in
  b.(0) <- voltage k x o;
  b.(1) <- voltage k x (o + 1);
  b.(2) <- voltage k x (o + 2);
  b.(3) <- voltage k x (o + 3);
  Model.eval k.devices.(tr) b k.comps;
  Model.terminals_into k.comps k.cur o;
  k.evals <- k.evals + 1

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
      eval_transistor k x tr
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
      eval_transistor k x tr
    end
  done;
  !saved

let restore k saved =
  for s = 0 to saved - 1 do
    Array.blit k.saved_cur (4 * s) k.cur (4 * k.saved_tr.(s)) 4
  done

let residual k i =
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

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

module Tm = Leakage_telemetry.Telemetry

let m_solves = Tm.counter "dc.solves"
let m_sweeps = Tm.counter "dc.sweeps"
let m_evals = Tm.counter "dc.device_evals"
let m_nonconverged = Tm.counter "dc.nonconverged"
let h_sweeps = Tm.histogram "dc.sweeps_per_solve"

(* Gauss–Seidel over per-gate blocks. A series stack's nodes are tied
   together by on-transistor conductances that dwarf their coupling to the
   rest of the circuit, so node-at-a-time relaxation crawls on them; solving
   the handful of unknowns a gate owns as one small Newton system restores
   fast convergence while keeping the sweep linear in circuit size. *)
let solve ?(options = default_options) ?(injections = []) (flat : Flatten.t) =
  let k = kernel flat injections in
  let x = Array.copy flat.Flatten.initial in
  let lo = -.options.v_margin and hi = flat.Flatten.vdd +. options.v_margin in
  let fd_h = 1e-7 in
  let sweeps = ref 0 in
  let converged = ref (flat.Flatten.n_unknowns = 0) in
  (* Scalar Newton update for single-unknown blocks (the common case). *)
  let update_scalar i =
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
      let dv = clamp (-.options.max_step) options.max_step (-.f0 /. g) in
      let v' = clamp lo hi (v0 +. dv) in
      x.(i) <- v';
      abs_float (v' -. v0)
    end
    else 0.0
  in
  (* The block's transistors are evaluated once; a Jacobian column
     re-evaluates only the perturbed unknown's transistors and puts their
     currents back after. *)
  let update_block block =
    let n = Array.length block in
    next_stamp k;
    Array.iter (eval_touching k x) block;
    let f0 = Array.map (residual k) block in
    let jac = Array.init n (fun _ -> Array.make n 0.0) in
    Array.iteri
      (fun j i ->
        let saved = x.(i) in
        x.(i) <- saved +. fd_h;
        let moved = perturb k x i in
        for r = 0 to n - 1 do
          jac.(r).(j) <- (residual k block.(r) -. f0.(r)) /. fd_h
        done;
        x.(i) <- saved;
        restore k moved)
      block;
    match Leakage_numeric.Linalg.lu_solve jac (Array.map (fun v -> -.v) f0) with
    | dx ->
      let biggest = ref 0.0 in
      Array.iteri
        (fun j i ->
          let dv = clamp (-.options.max_step) options.max_step dx.(j) in
          let v' = clamp lo hi (x.(i) +. dv) in
          biggest := Float.max !biggest (abs_float (v' -. x.(i)));
          x.(i) <- v')
        block;
      !biggest
    | exception Leakage_numeric.Linalg.Singular ->
      (* Fall back to node-at-a-time relaxation for this block. *)
      Array.fold_left
        (fun acc i -> Float.max acc (update_scalar i))
        0.0 block
  in
  while (not !converged) && !sweeps < options.max_sweeps do
    incr sweeps;
    let max_update = ref 0.0 in
    Array.iter
      (fun block ->
        let delta =
          match Array.length block with
          | 0 -> 0.0
          | 1 -> update_scalar block.(0)
          | _ -> update_block block
        in
        max_update := Float.max !max_update delta)
      flat.Flatten.blocks;
    if !max_update < options.tol_voltage then converged := true
  done;
  let max_residual = max_residual_of k x in
  (* Most callers keep only [voltages]; the registry records every solve
     that hit the sweep budget without settling. *)
  if Tm.enabled () then begin
    Tm.incr m_solves;
    Tm.add m_sweeps !sweeps;
    Tm.add m_evals k.evals;
    Tm.observe h_sweeps (float_of_int !sweeps);
    if not !converged then Tm.incr m_nonconverged
  end;
  { voltages = x; sweeps = !sweeps; converged = !converged; max_residual }

let solve_dense ?(injections = []) (flat : Flatten.t) =
  let module Solver = Leakage_numeric.Solver in
  let k = kernel flat injections in
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
