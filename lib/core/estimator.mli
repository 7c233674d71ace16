(** Circuit-level leakage estimation with loading effect — the paper's Fig-13
    algorithm.

    One topological pass: simulate logic values, sum each net's loading
    current from the precharacterized per-pin gate currents of its fanout
    cells, then look each gate's leakage components up in the loading-aware
    tables. Loading is taken one level deep (the paper's §6 observation that
    propagation beyond one level is negligible), which is what removes the
    need to solve the circuit-wide KCL system. *)

type gate_estimate = {
  gate : int;                               (** gate id *)
  vector : Leakage_circuit.Logic.vector;    (** logic state at the pins *)
  loading_in : float array;                 (** signed A, per pin (siblings only) *)
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

val estimate :
  ?passes:int ->
  ?library_of_gate:(int -> Library.t) ->
  ?scratch:Leakage_circuit.Simulate.assignment ->
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

    [scratch] reuses a caller-owned logic-simulation buffer of length
    [Netlist.net_count] instead of allocating one; the returned
    [result.assignment] is a snapshot copy, so later estimates sharing the
    buffer never mutate previously returned results. *)

val estimate_totals :
  ?passes:int ->
  ?library_of_gate:(int -> Library.t) ->
  ?scratch:Leakage_circuit.Simulate.assignment ->
  Library.t -> Leakage_circuit.Netlist.t -> Leakage_circuit.Logic.vector ->
  Leakage_spice.Leakage_report.components * Leakage_spice.Leakage_report.components
(** [(with-loading totals, baseline totals)] under one pattern — the same
    numbers as {!estimate}'s [totals] / [baseline_totals], bit for bit
    (identical summation order), without materializing per-gate records
    or an assignment snapshot. This is the hot path for vector
    sweeps; {!average_over_vectors} runs on it. *)

val estimate_fold :
  ?passes:int ->
  ?library_of_gate:(int -> Library.t) ->
  ?scratch:Leakage_circuit.Simulate.assignment ->
  init:'acc ->
  f:
    ('acc -> int -> Characterize.entry ->
     loaded:Leakage_spice.Leakage_report.components ->
     isolated:Leakage_spice.Leakage_report.components -> 'acc) ->
  Library.t -> Leakage_circuit.Netlist.t -> Leakage_circuit.Logic.vector ->
  'acc * Leakage_spice.Leakage_report.components
  * Leakage_spice.Leakage_report.components
(** {!estimate_totals} with a caller fold over the per-gate results: [f] is
    called once per gate in ascending gate-id order with the gate's
    characterization entry, its loading-aware components and its isolated
    nominal components — no per-gate records are materialized. Returns
    [(acc, with-loading totals, baseline totals)]; the totals are
    bit-identical to {!estimate_totals} (same summation order). This is how
    the variance-propagation layer rides the SoA hot path. *)

val average_over_vectors :
  ?pool:Leakage_parallel.Pool.t ->
  Library.t -> Leakage_circuit.Netlist.t -> Leakage_circuit.Logic.vector list ->
  Leakage_spice.Leakage_report.components * Leakage_spice.Leakage_report.components
(** [(mean with-loading totals, mean baseline totals)] over a vector set.

    Vectors are processed in fixed-width chunks whose partial sums are folded
    in chunk order; the summation tree depends only on the vector count, so
    the result is bit-identical with or without [pool], at any pool size. *)

val avg_chunk : int
(** Chunk width of {!average_over_vectors}'s fixed summation tree. Part of
    the bit-identity contract: results are only reproducible across builds
    that agree on this constant, so benchmark artifacts record it. *)
