(** Average leakage from signal probabilities.

    The paper evaluates averages over 100 random vectors; this module
    computes the expectation in closed form instead: primary-input '1'
    probabilities are propagated through the logic (independence
    assumption), each gate's state distribution follows from its pin
    probabilities, and expected leakage sums state-weighted characterization
    entries, with loading taken at the expected per-net injection (the
    loading tables are nearly linear over the realistic range, so the Jensen
    error is negligible — checked by tests against empirical vector
    averages).

    Reconvergent fanout correlates signals and the independence assumption
    then biases probabilities, as in all classic static probability
    propagation; on tree-like circuits the expectation is exact. *)

val propagate :
  ?input_probability:float array ->
  Leakage_circuit.Netlist.t ->
  float array
(** Per-net probability of logic '1' (default: 0.5 on every primary input).
    Raises [Invalid_argument] on a size mismatch or a probability outside
    [0, 1] (NaN included). *)

val gate_state_distribution :
  Leakage_circuit.Gate.kind -> float array -> (Leakage_circuit.Logic.vector * float) list
(** Probability of each input vector of a cell given independent pin
    '1'-probabilities (exposed for tests; sums to 1). *)

type expectation = {
  totals : Leakage_spice.Leakage_report.components;
  (** expected loading-aware leakage *)
  baseline_totals : Leakage_spice.Leakage_report.components;
  (** expected no-loading leakage *)
  net_probability : float array;
  net_injection : float array;  (** expected signed loading current per net *)
}

val expected_leakage :
  ?input_probability:float array ->
  Library.t ->
  Leakage_circuit.Netlist.t ->
  expectation
(** Closed-form average leakage over the input distribution — the analytic
    counterpart of averaging the estimator over random vectors. *)
