(** Loading-aware gate characterization: the lookup tables behind the Fig-13
    estimator ("leakage components of different gate type, size, loading").

    For every (cell kind, input vector) the characterizer records the
    nominal leakage, the per-pin current the cell injects into its input
    nets, and — per input pin and for the output — the leakage-component
    shift as a function of signed injected loading current, sampled on a
    regular grid and interpolated linearly at estimation time.

    Positive injected current raises the net voltage. On a net at logic '0'
    loading gates inject positive current (their on-PMOS tunneling), on a
    net at '1' negative (their on-NMOS draws gate current), so each state
    exercises one half of the signed axis. *)

type table = {
  d_isub : Leakage_numeric.Interp.grid1d;
  d_igate : Leakage_numeric.Interp.grid1d;
  d_ibtbt : Leakage_numeric.Interp.grid1d;
}
(** One interpolated curve per leakage component. *)

type vth_slot
(** An entry's threshold table, built on its first read: see
    {!vth_log_factor}. *)

type entry = {
  kind : Leakage_circuit.Gate.kind;
  strength : float;  (** drive strength the entry was characterized at *)
  vector : Leakage_circuit.Logic.vector;
  nominal_isolated : Leakage_spice.Leakage_report.components;
  (** cell alone with ideal inputs — the traditional no-loading model *)
  nominal_driven : Leakage_spice.Leakage_report.components;
  (** cell in the reference-driver testbench, zero injection — the base the
      delta tables are relative to *)
  pin_injection : float array;
  (** per input pin: current (A) this cell injects into the attached net at
      the nominal point; what fanout gates contribute to a net's loading *)
  pin_response : Leakage_numeric.Interp.grid1d array;
  (** per input pin: the same injected current as a function of the external
      loading current on that pin's net. At zero loading it equals
      [pin_injection]; the multi-pass estimator iterates this map to
      propagate loading beyond one level (§6's "propagation of loading
      effect", which the paper argues — and the ablation bench confirms —
      converges after one level). *)
  currents : float array;
  (** the injected-current axis (A) every delta table shares: the grid's
      [points] nodes, strictly increasing over [±max_current] *)
  deltas : float array;
  (** the loading-response tables, flat: leakage-component shifts (A)
      relative to [nominal_driven] at each node of [currents]. Port [p]
      (input pin [p] for [p < arity], the output for [p = arity]), node [j]
      and component [c] (0 sub, 1 gate, 2 BTBT) sit at
      [3 * (p * points + j) + c], so one lookup reads two adjacent node
      triples. *)
  vth : vth_slot;
  (** the corner the entry was characterized at, and its threshold table
      once {!vth_log_factor} built it *)
}

val vth_log_factor : entry -> table
(** Per component: ln(L(ΔVth)/L(0)) of the driven nominal, tabulated over a
    rigid threshold shift of the cell (±150 mV grid, 9 nodes — beyond ±3σ
    of the paper's variation). The statistical estimator multiplies a
    gate's estimate by exp of the interpolated value; the grid clamps at
    its edges, which keeps extreme samples physical where an analytic
    exponential extrapolation would explode (series stacks change regime
    under large shifts).

    Only σ reads the table, so {!characterize} does not build it: the
    first read does, on a freshly compiled bench at the entry's corner
    whose zero-shift node is [nominal_driven] (8 DC solves, counted in
    [library.vth_tables]), and publishes it in the entry; every later read
    is one atomic load. Domains racing on one cold entry build the same
    bits and the first publish wins, so every read returns that one
    table. The bits equal a sweep on the characterization bench itself. *)

val vth_log_slope : entry -> Leakage_spice.Leakage_report.components
(** Per-component slope of {!vth_log_factor} at zero shift (1/V) — the λ of
    the analytic variance propagation, i.e. ∂ln(I)/∂ΔVth of exactly the
    table the statistical sampler interpolates. Central difference across
    the grid nodes bracketing zero. *)

val vacant : entry
(** A placeholder that holds no characterization: [Library]'s empty row
    slot, compared by [==]. Reading its threshold table raises
    [Invalid_argument]. *)

type grid_spec = {
  max_current : float;  (** grid spans [-max_current, +max_current], A *)
  points : int;
}

val default_grid : grid_spec
(** ±3 µA, 7 points (1 µA apart) — covering the paper's 0–3000 nA sweeps.
    Seven is the coarsest odd count (an odd count keeps 0 A a node, so the
    nominal solve is reused) at which every accuracy bound holds: the
    response is close to linear, and linear interpolation at each segment
    midpoint stays within 0.021% of the entry's nominal total of a solve
    there, for every kind, vector and port at D25/300 K and D25-S/420 K
    (test_core's "axis midpoints" gates it at 0.03%; 5 points read
    0.036%). Against 21 points the suite's 3-vector totals move at most
    0.0054 point at five corners ([bench/main.exe ablation-grid]). *)

val characterize :
  ?grid:grid_spec ->
  ?strength:float ->
  device:Leakage_device.Params.t ->
  temp:float ->
  ?vdd:float ->
  Leakage_circuit.Gate.kind ->
  Leakage_circuit.Logic.vector ->
  entry
(** Cost: the cell alone once, then one compiled {!Testbench.bench} re-run
    per grid point — the nominal and every port's [points] currents. The
    zero node of an odd current axis repeats the nominal solve's inputs
    bit for bit and reuses it: a NAND2 entry is 20 DC solves at the
    default grid, 14 at 4 points and 62 at 21. The threshold table is not
    built here; {!vth_log_factor}'s first read adds its 8 solves. *)

type port = In of int | Out  (** input pin [k], or the output *)

val delta :
  entry -> port -> float -> Leakage_spice.Leakage_report.components
(** One port's interpolated component shift at a signed injected current
    (linear between nodes, the edge sample beyond either end). Raises
    [Invalid_argument] on a pin the cell lacks or a NaN current. *)

val apply : entry -> loading:float array -> out:float array -> int
(** [apply entry ~loading ~out] is the estimated leakage under the given
    signed loading currents, one per port in the [deltas] order: input pin
    [k] at [loading.(k)], the output at [loading.(arity)]. It writes
    [nominal_driven + Σ_k delta (In k) loading.(k) + delta Out loading.(arity)],
    summed per component in that order and clamped at zero (per-pin
    superposition, the paper's eq. 5), into [out.(0)] (sub), [out.(1)]
    (gate) and [out.(2)] (BTBT), and returns how many ports' loading lies
    strictly outside [currents] — lookups that read an edge sample.

    Cost: per port, one index computation on the uniform axis and at most
    a step or two to the segment bisection would find (so every bit equals
    the bisection's), then six reads of [deltas]; no allocation. Raises
    [Invalid_argument] when [loading] is not [arity + 1] long or holds a
    NaN, and on an [out] shorter than 3. *)
