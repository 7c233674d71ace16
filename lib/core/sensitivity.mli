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

val analyze :
  ?pool:Leakage_parallel.Pool.t ->
  ?lin_tol:float ->
  sigmas:Leakage_device.Variation.sigmas ->
  Library.t ->
  entries:Characterize.entry array ->
  loaded:float array ->
  isolated:float array ->
  result
(** Closed-form moments over per-gate state: gate [g]'s characterization
    entry [entries.(g)], its loading-aware components at
    [loaded.(3g .. 3g+2)] and its isolated nominal components at
    [isolated.(3g .. 3g+2)] (isub, igate, ibtbt; what
    [Estimator.estimate_fold] hands its callback and the entry's
    [nominal_isolated]). The die-level geometry sensitivities come from
    [lib]'s device, temperature and supply ({!Library.die_geometry},
    computed once per library and σ_L/σ_Tox/σ_VDD triple). No netlist
    access, no fallback ([from_mc] is always false here), the arrays are
    not modified; the only state it touches is [lib]'s memo of class
    integrals and die geometries, which never changes a result. Raises
    [Invalid_argument] unless both float arrays hold three floats per
    entry.

    Gates are bucketed by value into response classes (equal threshold
    tables; gates sharing a characterization entry always share a class),
    each class's members are summed in a canonical order, and the classes
    are visited in a canonical order — so the result depends only on the
    multiset of per-gate states: gate numbering, array order and [pool]
    never change any reported digit, which is what makes sigmas invariant
    under netlist renaming.

    Cost: per gate, a probe of a per-call cache of the entries already
    classed (a hash of one float's bits, checked with [==]); per distinct
    entry, one hash of its tables' values; then a stable sort of each
    class's members on their six floats, read in place from the flat
    arrays (fanned out over [pool], one item per class), and moment sums
    over the K classes. Each class's weight-independent threshold-axis
    integrals (under the full, inter-only and intra-only sets) depend on
    its tables and the (σ_vth_inter, σ_vth_intra) pair alone, so [lib]
    computes them once and hands them back on every later call
    ({!Library.class_integrals}, keyed by the tables' bits, so classes
    whose entries came from other libraries are kept too): a class new
    to [lib] costs 222 exact segment integrals under the paper's sigmas
    and counts in [sensitivity.class_misses], a known one a hash and a
    probe. *)

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
    to [Estimator.estimate_totals]; the variance result is {!analyze} over
    the fold's per-gate state, copied into flat arrays with no record per
    gate (bit-identical at any pool size).

    When a linearization flag trips and [fallback_samples] > 0 (default
    2000), the flagged components — and the total column, which needs their
    covariances — are replaced by Monte-Carlo estimates
    ([Statistical.run] under full / inter-only / intra-only sigmas, seeded
    with [fallback_seed]) and marked [from_mc]. Pass [fallback_samples:0]
    to always report the closed form. *)
