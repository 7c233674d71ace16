(** DC operating-point solver.

    Solves the KCL system of eq. (1)/(2): at every internal node, transistor
    terminal currents (plus any injected test current) must balance. Two
    backends:

    - {!run} (and {!solve}): block Gauss–Seidel. Each gate's unknowns (its output, cell
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

    Both backends evaluate devices through {!Leakage_device.Model.eval}.
    A {!kernel} compiles one device record per distinct (device, polarity,
    width) and keeps every transistor's four terminal currents in one
    array. The current-reuse rule: a transistor is evaluated when one of
    its nodes may have moved, never once per terminal. A block update
    evaluates the block's transistors once and sums each residual row from
    the array, in [Flatten.touching] order; each Jacobian column
    re-evaluates only the perturbed unknown's transistors and then puts
    their saved currents back. A scalar update evaluates the node's
    transistors at the two probe voltages; a full residual vector
    ({!solve_dense}, {!max_residual}) evaluates each transistor once.

    The gate-only rule: a block update reads a transistor only at the
    block's unknowns, so a transistor whose drain, source and bulk all lie
    outside the block (every fanout transistor of the block's output, and
    in a testbench the cell under test while the reference inverters
    driving it are relaxed) is read at its gate terminal alone, and only
    its tunneling half ({!Leakage_device.Model.eval_tunneling}, 4 of the
    model's 10 libm calls) runs. Each block relaxes from a list the kernel
    builds once: its transistors, each once, flagged full or gate-only by
    the block's own unknowns, and for a block of several unknowns one such
    list per Jacobian column. An unknown relaxed in more than one block
    (the MTCMOS virtual ground, interleaved every 16 gates) therefore
    forces full evaluation of its transistors in each of its blocks, and
    a column saves and restores only the slots it overwrites.

    Kernel reuse: a kernel holds everything a solve reads that does not
    change between runs, so {!run} re-solves it with only the injections
    and the start voltages reset ({!solve} is [run (kernel flat)]). Its
    slot table is one int per terminal, the place of the terminal's
    voltage in the run's vector: the unknowns, then the few distinct fixed
    voltages.
    The block Newton step builds its Jacobian in scratch the kernel owns
    and solves it with {!Leakage_numeric.Linalg.lu_solve_in_place}, the one
    LU {!Leakage_numeric.Solver} uses too; a block update allocates
    nothing.

    The bit contract: the kernel performs the same floating-point
    operations in the same order as the record-returning
    {!Leakage_device.Model.components}, and every residual is summed in
    the same order as before the kernel, so sweep counts, the LU steps and
    every voltage are bit-identical to a per-terminal evaluation. Each
    run adds its own device evaluations to the [dc.device_evals] counter,
    and the gate-only ones among them to [dc.gate_evals]. *)

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
}

type kernel
(** A flattened network compiled for solving: its devices, its terminal
    slots and the scratch a run works in. A kernel is single-threaded
    state; runs on one kernel must not overlap. *)

val kernel : Flatten.t -> kernel

val run :
  ?options:options ->
  ?injections:(int * float) list ->
  kernel ->
  result
(** Block Gauss–Seidel from [Flatten.initial]. [injections] adds ideal
    current sources pushing the given current INTO the listed unknowns
    (the characterization harness models loading gates this way). Runs on
    one kernel are independent: each starts from the same voltages with
    only its own injections, and returns fresh [voltages]. *)

val solve :
  ?options:options ->
  ?injections:(int * float) list ->
  Flatten.t ->
  result
(** [run] on a fresh kernel. *)

val solve_dense :
  ?injections:(int * float) list ->
  Flatten.t ->
  result
(** Full-Newton reference solution. Intended for circuits with at most a few
    hundred unknowns. *)

val max_residual :
  ?injections:(int * float) list -> Flatten.t -> float array -> float
(** [max_residual ?injections flat voltages] is the worst KCL violation
    (A) of [voltages] under [injections]: every transistor evaluated once
    on a fresh kernel, each node's residual summed in [Flatten.touching]
    order. A solve does not compute it; call this to check one. *)

val flat_of : kernel -> Flatten.t

val set_gate_device : kernel -> int -> Leakage_device.Params.t -> unit
(** [set_gate_device k g d] recompiles the transistors of netlist gate [g]
    for device [d]; later runs solve with [g] on [d] (the kernel's
    [Flatten.device_of_gate] is not consulted again). *)

val eval_components : kernel -> float array -> int -> float array -> unit
(** [eval_components k x tr c] writes transistor [tr]'s eight components
    at the voltages [x] to [c] ({!Leakage_device.Model.eval} order), with
    the device the kernel compiled for it. Counts no solver evaluation. *)
