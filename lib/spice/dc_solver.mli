(** DC operating-point solver.

    Solves the KCL system of eq. (1)/(2): at every internal node, transistor
    terminal currents (plus any injected test current) must balance. Two
    backends:

    - {!solve}: block Gauss–Seidel. Each gate's unknowns (its output, cell
      internal nets and series-stack nodes) are relaxed jointly by one
      damped Newton step on a finite-difference Jacobian, gates swept in
      topological order; single-unknown blocks take a scalar Newton step.
      Because the node coupling is dominated by each net's driver
      conductance (gate tunneling from fanout is orders of magnitude
      weaker), the sweeps converge in a handful of iterations even on
      multi-thousand-gate circuits. This is the production path.

    - {!solve_dense}: damped full-Newton on the complete system with a dense
      finite-difference Jacobian. O(n³) — only for small circuits; used in
      tests to validate the Gauss–Seidel fixed point, and by MTCMOS standby
      analysis under 150 unknowns.

    {2 Evaluation kernel}

    Both backends evaluate devices through {!Leakage_device.Model.eval}:
    each solve compiles one device record per distinct (device, polarity,
    width) and keeps every transistor's four terminal currents in one
    array. The current-reuse rule: a transistor is evaluated when one of
    its nodes may have moved, never once per terminal. A block update
    evaluates the block's transistors once and sums each residual row from
    the array, in [Flatten.touching] order; each Jacobian column
    re-evaluates only the perturbed unknown's transistors and then puts
    their saved currents back. A scalar update evaluates the node's
    transistors at the two probe voltages; a full residual vector
    ({!solve_dense}, the final [max_residual]) evaluates each transistor
    once.

    The bit contract: the kernel performs the same floating-point
    operations in the same order as the record-returning
    {!Leakage_device.Model.components}, and every residual is summed in
    the same order as before the kernel, so sweep counts, the LU steps and
    every voltage are bit-identical to a per-terminal evaluation. Each
    solve adds its device evaluations to the [dc.device_evals] counter. *)

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

