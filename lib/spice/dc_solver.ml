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

let devices_per_transistor (flat : Flatten.t) =
  Array.map
    (fun (tr : Flatten.transistor) -> flat.device_of_gate tr.owner)
    flat.transistors

let terminal_current flat devices x tr_idx term =
  let tr = flat.Flatten.transistors.(tr_idx) in
  let v n = Flatten.node_voltage flat x n in
  let bias =
    { Model.vg = v tr.g; vd = v tr.d; vs = v tr.s; vb = v tr.b }
  in
  let t =
    Model.terminals devices.(tr_idx) tr.pol ~w:tr.w ~temp:flat.temp bias
  in
  match term with
  | `G -> t.Model.into_gate
  | `D -> t.Model.into_drain
  | `S -> t.Model.into_source
  | `B -> t.Model.into_bulk

let injection_array flat injections =
  let inj = Array.make (Stdlib.max 1 flat.Flatten.n_unknowns) 0.0 in
  List.iter
    (fun (i, amps) ->
      if i < 0 || i >= flat.Flatten.n_unknowns then
        invalid_arg "Dc_solver: injection at unknown node index";
      inj.(i) <- inj.(i) +. amps)
    injections;
  inj

let residual_at flat devices inj x i =
  let acc = ref (-.inj.(i)) in
  List.iter
    (fun (tr_idx, term) -> acc := !acc +. terminal_current flat devices x tr_idx term)
    flat.Flatten.touching.(i);
  !acc

let residual flat ?(injections = []) x i =
  let devices = devices_per_transistor flat in
  let inj = injection_array flat injections in
  residual_at flat devices inj x i

let max_residual_of flat devices inj x =
  let worst = ref 0.0 in
  for i = 0 to flat.Flatten.n_unknowns - 1 do
    worst := Float.max !worst (abs_float (residual_at flat devices inj x i))
  done;
  !worst

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

module Tm = Leakage_telemetry.Telemetry

let m_solves = Tm.counter "dc.solves"
let m_sweeps = Tm.counter "dc.sweeps"
let m_nonconverged = Tm.counter "dc.nonconverged"
let h_sweeps = Tm.histogram "dc.sweeps_per_solve"

(* Gauss–Seidel over per-gate blocks. A series stack's nodes are tied
   together by on-transistor conductances that dwarf their coupling to the
   rest of the circuit, so node-at-a-time relaxation crawls on them; solving
   the handful of unknowns a gate owns as one small Newton system restores
   fast convergence while keeping the sweep linear in circuit size. *)
let solve ?(options = default_options) ?(injections = []) (flat : Flatten.t) =
  let devices = devices_per_transistor flat in
  let inj = injection_array flat injections in
  let x = Array.copy flat.Flatten.initial in
  let lo = -.options.v_margin and hi = flat.Flatten.vdd +. options.v_margin in
  let fd_h = 1e-7 in
  let sweeps = ref 0 in
  let converged = ref (flat.Flatten.n_unknowns = 0) in
  (* Scalar Newton update for single-unknown blocks (the common case). *)
  let update_scalar i =
    let v0 = x.(i) in
    let f0 = residual_at flat devices inj x i in
    x.(i) <- v0 +. fd_h;
    let f1 = residual_at flat devices inj x i in
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
  let update_block block =
    let n = Array.length block in
    let f () = Array.map (residual_at flat devices inj x) block in
    let f0 = f () in
    let jac = Array.init n (fun _ -> Array.make n 0.0) in
    Array.iteri
      (fun j i ->
        let saved = x.(i) in
        x.(i) <- saved +. fd_h;
        let fj = f () in
        x.(i) <- saved;
        for r = 0 to n - 1 do
          jac.(r).(j) <- (fj.(r) -. f0.(r)) /. fd_h
        done)
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
  (* Most callers keep only [voltages]; the registry records every solve
     that hit the sweep budget without settling. *)
  if Tm.enabled () then begin
    Tm.incr m_solves;
    Tm.add m_sweeps !sweeps;
    Tm.observe h_sweeps (float_of_int !sweeps);
    if not !converged then Tm.incr m_nonconverged
  end;
  {
    voltages = x;
    sweeps = !sweeps;
    converged = !converged;
    max_residual = max_residual_of flat devices inj x;
  }

let solve_dense ?(injections = []) (flat : Flatten.t) =
  let module Solver = Leakage_numeric.Solver in
  let devices = devices_per_transistor flat in
  let inj = injection_array flat injections in
  let n = flat.Flatten.n_unknowns in
  let f x = Array.init n (residual_at flat devices inj x) in
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
  {
    voltages = r.Solver.x;
    sweeps = r.Solver.iterations;
    converged = r.Solver.converged;
    max_residual = max_residual_of flat devices inj r.Solver.x;
  }
