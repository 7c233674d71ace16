module Tm = Leakage_telemetry.Telemetry

let m_calls = Tm.counter "solver.calls"
let m_iterations = Tm.counter "solver.iterations"
let m_nonconverged = Tm.counter "solver.nonconverged"
let h_iterations = Tm.histogram "solver.iterations_per_solve"

type options = {
  tol_residual : float;
  tol_step : float;
  max_iter : int;
  fd_step : float;
  max_damping : int;
}

let default_options = {
  tol_residual = 1e-13;
  tol_step = 1e-12;
  max_iter = 80;
  fd_step = 1e-7;
  max_damping = 24;
}

type result = {
  x : float array;
  residual_norm : float;
  iterations : int;
  converged : bool;
}

let clamp_into ?lower ?upper x =
  (match lower with
   | None -> ()
   | Some lo ->
     Array.iteri (fun i v -> if x.(i) < v then x.(i) <- v) lo);
  match upper with
  | None -> ()
  | Some hi -> Array.iteri (fun i v -> if x.(i) > v then x.(i) <- v) hi

(* Forward-difference Jacobian of [f] at [x] into the row-major [jac]. *)
let jacobian ~fd_step ~f x fx jac =
  let n = Array.length x in
  for j = 0 to n - 1 do
    let saved = x.(j) in
    (* Scale the step with the variable magnitude to keep relative accuracy. *)
    let h = fd_step *. Float.max 1.0 (abs_float saved) in
    x.(j) <- saved +. h;
    let fph = f x in
    x.(j) <- saved;
    for i = 0 to n - 1 do
      jac.((i * n) + j) <- (fph.(i) -. fx.(i)) /. h
    done
  done

let solve ?(options = default_options) ?lower ?upper ~f x0 =
  let x = Array.copy x0 in
  clamp_into ?lower ?upper x;
  let n = Array.length x in
  (* the Newton step's scratch: Jacobian, row order, right-hand side, step *)
  let jac = Array.make (n * n) 0.0 in
  let perm = Array.make n 0 in
  let rhs = Array.make n 0.0 in
  let dx = Array.make n 0.0 in
  let fx = ref (f x) in
  let res_norm = ref (Linalg.norm_inf !fx) in
  let iterations = ref 0 in
  let converged = ref (!res_norm <= options.tol_residual) in
  let stalled = ref false in
  while (not !converged) && (not !stalled) && !iterations < options.max_iter do
    incr iterations;
    jacobian ~fd_step:options.fd_step ~f x !fx jac;
    Array.iteri (fun i v -> rhs.(i) <- -.v) !fx;
    let step =
      match Linalg.lu_solve_in_place ~n jac perm rhs dx with
      | () -> Some dx
      | exception Linalg.Singular -> None
    in
    match step with
    | None -> stalled := true
    | Some dx ->
      (* Damped line search: halve the step until the residual improves. *)
      let rec try_step alpha attempts =
        let candidate = Array.mapi (fun i xi -> xi +. (alpha *. dx.(i))) x in
        clamp_into ?lower ?upper candidate;
        let fc = f candidate in
        let norm_c = Linalg.norm_inf fc in
        if norm_c < !res_norm || attempts >= options.max_damping then
          (candidate, fc, norm_c, alpha)
        else try_step (alpha /. 2.0) (attempts + 1)
      in
      let candidate, fc, norm_c, alpha = try_step 1.0 0 in
      let step_size = alpha *. Linalg.norm_inf dx in
      if norm_c >= !res_norm && step_size < options.tol_step then
        stalled := true
      else begin
        Array.blit candidate 0 x 0 (Array.length x);
        fx := fc;
        res_norm := norm_c;
        if !res_norm <= options.tol_residual || step_size < options.tol_step
        then converged := true
      end
  done;
  let result =
    {
      x;
      residual_norm = !res_norm;
      iterations = !iterations;
      converged = !converged || !res_norm <= options.tol_residual *. 100.0;
    }
  in
  (* Callers historically read [x] and dropped [converged]; the registry
     keeps a visible record of every solve that ran out of budget. *)
  if Tm.enabled () then begin
    Tm.incr m_calls;
    Tm.add m_iterations result.iterations;
    Tm.observe h_iterations (float_of_int result.iterations);
    if not result.converged then Tm.incr m_nonconverged
  end;
  result
