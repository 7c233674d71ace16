(** Statistical circuit-level leakage estimation under process variation.

    Extends the paper's Monte-Carlo analysis (§5.3, done there for a single
    inverter in SPICE) to full circuits at estimator speed: each sample
    draws a die-level parameter shift plus independent per-gate threshold
    shifts, and every gate's loading-aware estimate is scaled through its
    characterized threshold log-sensitivity, L → L·exp(s·ΔVth). Die-level
    threshold shifts enter the same way; die-level supply and geometry
    shifts are folded into a per-die scale factor calibrated against the
    library device. Validated against the transistor-level Monte Carlo in
    the test suite. *)

type sample_totals = {
  with_loading : Leakage_spice.Leakage_report.components;
  no_loading : Leakage_spice.Leakage_report.components;
}

type result = {
  samples : sample_totals array;
  total_with_loading : float array;  (** convenience series, A *)
  total_no_loading : float array;
}

val run :
  ?n_samples:int ->
  ?seed:int ->
  ?pool:Leakage_parallel.Pool.t ->
  sigmas:Leakage_device.Variation.sigmas ->
  Library.t ->
  Leakage_circuit.Netlist.t ->
  Leakage_circuit.Logic.vector ->
  result
(** Monte-Carlo estimate for one input pattern (default 1,000 samples,
    seed 1). Cost per sample is O(gates) table scalings plus the two
    shifted reference-inverter solves of its die scale; the two nominal
    reference solves run once per call, before the samples. With telemetry
    on, a run adds its samples to [statistical.samples] and its per-gate
    threshold-table evaluations ({!Characterize.vth_factor}, samples ×
    gates) to [statistical.table_evals].

    Every sample's RNG stream is split off the root generator by sample
    index before evaluation, so [pool] fans samples out without changing a
    single draw: results are bit-identical with or without a pool, at any
    pool size. *)

val die_scale :
  Library.t -> Leakage_device.Variation.die ->
  Leakage_spice.Leakage_report.components
(** Per-component multiplicative factor a die-level (L, Tox, VDD) shift
    applies to every gate: the reference inverter's components at the
    shifted corner over those at the library corner, averaged over both
    input states (four single-inverter solves; {!run} solves the nominal
    pair once for all its samples, with the same bits). Exposed for
    tests. *)

val summary :
  result -> Leakage_numeric.Stats.summary * Leakage_numeric.Stats.summary
(** [(with-loading, no-loading)] summaries of the total-leakage samples. *)
