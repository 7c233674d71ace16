(** Analytic variance propagation: closed-form mean and σ of every leakage
    component under process variation, from one estimator pass — no
    sampling.

    Implements the statistical model [Statistical.run] samples, in closed
    form, working in LOG space (∂ln I/∂p) throughout. The per-gate
    threshold response is the clamped piecewise-linear table the
    Monte-Carlo interpolates, and its Gaussian moments are integrated
    against that very table — exactly, segment by segment, via the normal
    CDF — so the threshold axis carries no linearization error at all
    (only a fixed-node quadrature over the shared die shift, orders of
    magnitude below sampling noise). The reported first-order λ still
    comes from [Characterize.vth_log_slope]. The die-level geometry/supply
    response comes from the jet-valued compact model
    ([Model.components_jet]) differentiated on the reference inverter,
    curvature included, entering as quadratic-exponent Gaussian moments.
    The inter-die (fully correlated across gates) vs intra-die
    (independent per gate) split is exactly as [Variation.sigmas] defines
    it.

    Linearization is bounded where linearization is used: geometry axes
    whose compact-model log-response departs from the quadratic model by
    more than [lin_tol] (default 0.05 log units, ~5%) at a 2σ displacement
    are flagged, and the affected component optionally falls back to the
    Monte-Carlo sampler. Gates
    whose tabulated threshold response bends away from its first-order
    line beyond the tolerance are counted in [flagged_gates] — a
    diagnostic on reading λ alone, not a fallback trigger, since the
    moments integrate the full table. *)

type component_stat = {
  mean : float;         (** expected leakage, A *)
  sigma : float;        (** total standard deviation, A *)
  sigma_inter : float;  (** inter-die part: all die axes, intra σ := 0 *)
  sigma_intra : float;  (** intra-die part: per-gate threshold axis alone *)
  from_mc : bool;       (** true when this stat came from the MC fallback *)
}
(** [sigma_inter]/[sigma_intra] are the σ of the model restricted with
    [Variation.inter_only] / [Variation.intra_only]; the mechanisms
    compose as σ² ≈ σ_inter² + σ_intra² (exactly, in the log-linear
    model's covariance). *)

type stats = {
  s_isub : component_stat;
  s_igate : component_stat;
  s_ibtbt : component_stat;
  s_total : component_stat;
}
(** [s_total] accounts for the full cross-component covariance (components
    share every variation axis), not a naive σ² sum. *)

type result = {
  loaded : stats;      (** loading-aware estimate *)
  baseline : stats;    (** traditional isolated-gate estimate *)
  flagged_isub : bool;
  flagged_igate : bool;
  flagged_ibtbt : bool;
  (** component linearization-error flags: the closed form for this
      component breached [lin_tol] somewhere *)
  flagged_gates : int;
  (** gates whose tabulated threshold response departs from its
      first-order line λ·δ by more than [lin_tol] at ±2σ_dv — where
      quoting λ alone would mislead (the moments themselves integrate the
      full table and are unaffected) *)
  groups : int;        (** distinct response classes the moment sums ran over *)
}

val flagged : result -> bool
(** Any component flagged. *)

type row
(** Per-gate ingredients of the closed form: the gate's threshold response
    tables (with their λ/γ), and its loaded and isolated component
    values. *)

val expect_exp_table :
  xs:float array -> ys:float array -> mu:float -> s:float -> float
(** [E\[exp(T(v))\]] for [v ~ N(mu, s²)], where [T] interpolates [ys] over
    [xs] linearly and clamps to the end values outside the grid — the same
    response [Interp.eval1d] gives the sampler. Exact per segment via the
    normal CDF; the moment engine's innermost primitive, exposed for the
    test suite's quadrature/finite-difference oracles. [s = 0] degenerates
    to a point evaluation. *)

val row_of_entry :
  entry:Characterize.entry ->
  loaded:Leakage_spice.Leakage_report.components ->
  isolated:Leakage_spice.Leakage_report.components ->
  row
(** Build one gate's row from its characterization entry and its (loading-
    aware, isolated) component estimates — what [Estimator.estimate_fold]
    hands its callback. *)

val analyze :
  ?lin_tol:float ->
  sigmas:Leakage_device.Variation.sigmas ->
  device:Leakage_device.Params.t ->
  temp:float ->
  vdd:float ->
  row array ->
  result
(** Closed-form moments from per-gate rows (pure — no netlist access, no
    fallback; [from_mc] is always false here). The row array is not
    modified; the result depends only on the multiset of rows — gate
    numbering and array order never change any reported digit, which is
    what makes sigmas invariant under netlist renaming. Cost: O(n log n)
    to canonicalize plus moment sums over the K distinct response classes
    (gates sharing a characterization entry collapse into one class),
    each a fixed number of exact segment integrals and quadrature
    nodes. *)

val estimate_totals :
  ?passes:int ->
  ?pool:Leakage_parallel.Pool.t ->
  ?lin_tol:float ->
  ?fallback_samples:int ->
  ?fallback_seed:int ->
  sigmas:Leakage_device.Variation.sigmas ->
  Library.t ->
  Leakage_circuit.Netlist.t ->
  Leakage_circuit.Logic.vector ->
  Leakage_spice.Leakage_report.components
  * Leakage_spice.Leakage_report.components
  * result
(** [(with-loading totals, baseline totals, variance result)] under one
    pattern. The totals ride [Estimator.estimate_fold] and are bit-identical
    to [Estimator.estimate_totals]; the variance result adds one
    row-extraction sweep (fanned out over [pool] in fixed slots —
    bit-identical at any pool size) and the per-class moment assembly.

    When a linearization flag trips and [fallback_samples] > 0 (default
    2000), the flagged components — and the total column, which needs their
    covariances — are replaced by Monte-Carlo estimates
    ([Statistical.run] under full / inter-only / intra-only sigmas, seeded
    with [fallback_seed]) and marked [from_mc]. Pass [fallback_samples:0]
    to always report the closed form. *)
