(** Circuit-level leakage estimation with loading effect — the paper's Fig-13
    algorithm.

    One topological pass: simulate logic values, sum each net's loading
    current from the precharacterized per-pin gate currents of its fanout
    cells, then look each gate's leakage components up in the loading-aware
    tables. Loading is taken one level deep (the paper's §6 observation that
    propagation beyond one level is negligible), which is what removes the
    need to solve the circuit-wide KCL system. *)

type wiring
(** A netlist's pins as {!gate_leakage} reads them: the CSR pin lists, the
    output nets and each net's driving gate, shared with the netlist. *)

val wiring : Leakage_circuit.Netlist.t -> wiring
(** [wiring netlist] reads the netlist's storage (no copy) and builds its
    lazily built driver cache if need be: call [Netlist.warm] before
    sharing a netlist across domains. A netlist from
    [Netlist.with_kinds_strengths] shares its pins, so one wiring serves
    both. *)

val gate_leakage :
  wiring -> int -> Characterize.entry ->
  net_injection:float array -> own:float array -> loading:float array ->
  out:float array -> int
(** [gate_leakage w g entry ~net_injection ~own ~loading ~out] is one
    gate's loading-aware leakage: the paper's eq. (3) and eq. (5), written
    once for every estimator in the repo.

    [entry] is gate [g]'s characterization entry, [net_injection] the
    signed loading current each net receives from all its fanout pins, and
    [own.(p)] the current gate [g]'s own pin [p] contributes to that sum.
    Eq. (3) fills [loading] (length: [g]'s arity + 1) with each pin's
    I_L-IN: the net's injection minus [own.(p)] — the other cells' current
    only — or, on a primary-input net (one with no driving gate,
    [Netlist.driver_id netlist net < 0]), [-. own.(p)], which cancels the
    characterization testbench's finite-driver self-droop; the last slot
    gets I_L-OUT, [net_injection] at [g]'s output. Eq. (5)'s superposition,
    [Characterize.apply entry ~loading ~out], writes the components into
    [out] (sub, gate, BTBT); the result is the number of ports whose
    loading fell outside the entry's current axis.

    Cost: a few reads per pin and one {!Characterize.apply}; allocates
    nothing. Raises [Invalid_argument] when [loading] does not fit [g]. *)

type gate_estimate = {
  gate : int;                               (** gate id *)
  vector : Leakage_circuit.Logic.vector;    (** logic state at the pins *)
  loading_in : float array;                 (** signed A, per pin ({!gate_leakage}'s I_L-IN) *)
  loading_out : float;                      (** signed A (all fanout pins) *)
  with_loading : Leakage_spice.Leakage_report.components;
  no_loading : Leakage_spice.Leakage_report.components;
}

type result = {
  per_gate : gate_estimate array;           (** indexed by gate id *)
  totals : Leakage_spice.Leakage_report.components;
  (** loading-aware estimate *)
  baseline_totals : Leakage_spice.Leakage_report.components;
  (** traditional sum of isolated nominal leakages *)
  assignment : Leakage_circuit.Simulate.assignment;
  net_injection : float array;
  (** signed loading current (A) each net receives from all fanout cell
      pins (diagnostic; indexed by net) *)
}

type scratch
(** Every per-vector array of one estimate — logic values, each gate's
    input bits, net injections, port loadings and sums — for one netlist,
    and each gate's cell (a 2-byte index into the netlist's distinct
    cells), computed on the scratch's first estimate and kept while the
    netlist is the same value. A chunk of estimates on one domain shares
    one scratch; a scratch must not be used by two estimates at once. *)

val scratch : Leakage_circuit.Netlist.t -> scratch
(** A fresh scratch sized for the netlist. *)

val estimate :
  ?passes:int ->
  ?library_of_gate:(int -> Library.t) ->
  ?scratch:scratch ->
  Library.t -> Leakage_circuit.Netlist.t -> Leakage_circuit.Logic.vector ->
  result
(** Estimate under one input pattern. Cost: one logic simulation plus O(pins)
    table lookups per pass; characterization solves are cached in the
    library.

    [passes] (default 1) controls how far loading propagates: pass 1 uses
    each cell's nominal pin currents as its loading contribution (the
    paper's one-level model); every further pass re-evaluates the pin
    currents under the previous pass's net loading through the
    characterized pin-response curves, propagating the effect one more
    logic level — the "propagation of loading effect" the paper's §6
    discusses and dismisses as negligible (see the ablation bench).

    [library_of_gate] overrides the characterized library per gate id
    (heterogeneous cells: dual-Vth assignments, per-region corners); all
    libraries must share temperature and supply.

    [scratch] reuses a caller-owned {!scratch} instead of allocating one;
    the returned [result.assignment] and [result.net_injection] are
    snapshot copies, so later estimates sharing the scratch never mutate
    previously returned results. *)

val estimate_totals :
  ?passes:int ->
  ?library_of_gate:(int -> Library.t) ->
  ?scratch:scratch ->
  Library.t -> Leakage_circuit.Netlist.t -> Leakage_circuit.Logic.vector ->
  Leakage_spice.Leakage_report.components * Leakage_spice.Leakage_report.components
(** [(with-loading totals, baseline totals)] under one pattern. {!estimate},
    [estimate_totals] and {!estimate_fold} run one kernel that calls
    {!gate_leakage} in ascending gate-id order and sums the totals in that
    order, so this returns {!estimate}'s [totals] / [baseline_totals] bit
    for bit, without materializing per-gate records or an assignment
    snapshot. This is the hot path for vector sweeps;
    {!average_over_vectors} and [Vector_mc.resample] run on it.

    Cost per gate-vector, with a warm library and a reused [scratch]: one
    truth-table evaluation, one read of the gate's slot in its cell's row
    ({!Library.row}: the scratch indexes each gate's cell once per netlist,
    and each estimate resolves every cell's row once per library), the net
    injections and one {!gate_leakage}; no hash, no C call and no
    allocation per gate, a few records per estimate. Only a vacant slot
    goes through {!Library.gate_entry}. Telemetry, when on, counts
    [estimator.estimates], [estimator.gate_lookups] and
    [estimator.clamped_lookups] (ports whose loading lay outside the
    entry's current axis) once per estimate, and the row hits in
    [library.hits] in bulk. *)

val estimate_fold :
  ?passes:int ->
  ?library_of_gate:(int -> Library.t) ->
  ?scratch:scratch ->
  init:'acc ->
  f:('acc -> int -> Characterize.entry -> loaded:float array -> 'acc) ->
  Library.t -> Leakage_circuit.Netlist.t -> Leakage_circuit.Logic.vector ->
  'acc * Leakage_spice.Leakage_report.components
  * Leakage_spice.Leakage_report.components
(** The same kernel as {!estimate_totals}, with the caller's fold over its
    results: [f] is called once per gate in ascending gate-id order with
    the gate's characterization entry and its loading-aware components in
    [loaded] (isub, igate, ibtbt: a buffer the next gate overwrites, so
    copy what you keep); its isolated nominal components are the entry's
    [nominal_isolated]. Returns [(acc, with-loading totals, baseline
    totals)]; the totals are {!estimate_totals}'s, bit for bit. This is how
    the variance-propagation layer and [Statistical.run] ride the hot path,
    without a record per gate. *)

val average_over_vectors :
  ?pool:Leakage_parallel.Pool.t ->
  Library.t -> Leakage_circuit.Netlist.t -> Leakage_circuit.Logic.vector list ->
  Leakage_spice.Leakage_report.components * Leakage_spice.Leakage_report.components
(** [(mean with-loading totals, mean baseline totals)] over a vector set.

    Vectors are processed in fixed-width chunks, each on one {!scratch},
    whose partial sums are folded in chunk order; the summation tree
    depends only on the vector count, so the result is bit-identical with
    or without [pool], at any pool size. *)

val avg_chunk : int
(** Chunk width of {!average_over_vectors}'s fixed summation tree. Part of
    the bit-identity contract: results are only reproducible across builds
    that agree on this constant, so benchmark artifacts record it. *)
