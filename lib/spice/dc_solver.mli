(** DC operating-point solver.

    Solves the KCL system of eq. (1)/(2): at every internal node, transistor
    terminal currents (plus any injected test current) must balance. Two
    backends:

    - {!solve}: nonlinear Gauss–Seidel — nodes are relaxed one at a time with
      a damped scalar Newton step, sweeping in topological order. Because the
      node coupling is dominated by each net's driver conductance (gate
      tunneling from fanout is orders of magnitude weaker), the sweeps
      converge in a handful of iterations even on multi-thousand-gate
      circuits. This is the production path.

    - {!solve_dense}: damped full-Newton on the complete system with a dense
      finite-difference Jacobian. O(n³) — only for small circuits; used in
      tests to validate the Gauss–Seidel fixed point. *)

type options = {
  tol_voltage : float;  (** sweep convergence: max node update, V *)
  max_sweeps : int;
  v_margin : float;     (** nodes are confined to [-margin, vdd+margin] *)
  max_step : float;     (** per-update voltage step clamp, V *)
}

val default_options : options

type result = {
  voltages : float array;  (** one per unknown *)
  sweeps : int;
  converged : bool;
  max_residual : float;    (** worst KCL violation, A *)
}

val solve :
  ?options:options ->
  ?injections:(int * float) list ->
  Flatten.t ->
  result
(** [injections] adds ideal current sources pushing the given current INTO
    the listed unknowns (the characterization harness models loading gates
    this way). *)

val solve_dense :
  ?injections:(int * float) list ->
  Flatten.t ->
  result
(** Full-Newton reference solution. Intended for circuits with at most a few
    hundred unknowns. *)

val residual : Flatten.t -> ?injections:(int * float) list ->
  float array -> int -> float
(** KCL residual (A) at one unknown for a voltage vector — exposed for
    tests. *)
