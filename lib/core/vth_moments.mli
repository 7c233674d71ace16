(** Exact Gaussian moments of clamped piecewise-linear threshold tables:
    the weight-independent threshold-axis integrals of one response class
    of {!Sensitivity.analyze}, and the key {!Library.class_integrals}
    memoizes them under.

    A class's integrals are a function of its three threshold log-response
    tables ([Characterize.entry.vth_log_factor]) and the
    (σ_vth_inter, σ_vth_intra) pair alone. With telemetry on, every mean
    an exact segment integral evaluates adds one to
    [sensitivity.table_integrals]: 222 per class under the paper's
    sigmas. *)

type tab = { t_xs : float array; t_ys : float array }
(** One clamped piecewise-linear log-response: the nodes of an
    [Interp.grid1d], constant beyond either end. Read-only. *)

val cmp_fa : float array -> float array -> int
(** Lexicographic [Float.compare] over two arrays of one length. *)

val eval_tab : tab -> float -> float
(** The table at a point: the value [Interp.eval1d] (and hence the
    Monte-Carlo sampler) gives. *)

type quad = { nodes : float array; wphi : float array }
(** Outer quadrature over the shared die shift: composite-Simpson nodes
    and their Gaussian-weighted weights. *)

type integrals = {
  m1 : float array;       (** 3: exact mean factors at the combined spread *)
  shared : float array;   (** 9: exact same-gate shared-y E\[e^{(l_c+l_d)(v)}\] *)
  f : float array array;  (** 3 × nodes: E_y\[e^{l(x_i+y)}\]; [\[||\]] if no quad *)
  sh_indep : float array; (** 9: independent-y same-gate products; [\[||\]]
                              unless both spreads are live *)
}
(** One class's weight-independent integrals under one sigma set. *)

type plan = {
  sets : Leakage_device.Variation.sigmas array;
  quads : quad option array;
}
(** The three sigma sets of one analysis — full, inter-only, intra-only —
    and their quadratures ([None] where σ_vth_inter = 0 and the gates
    decouple). *)

val plan : ?quads:quad option array -> Leakage_device.Variation.sigmas -> plan
(** The quadratures read the sets' (σ_vth_inter, σ_vth_intra) pair alone,
    so [quads], when given, is used as it stands: pass only the [quads] of
    a plan of the same pair ({!Library.plan} keeps them per pair). *)

val class_integrals : plan -> tab array -> integrals array
(** A class's integrals under each of the plan's sets, from its three
    tables: 222 table integrals under the paper's sigmas. *)

val mix : int -> float array -> int
(** FNV-style mix of node values as [Float.compare] sees them (±0.0 one
    value, all NaNs one): arrays equal bit for bit or under
    [Float.compare] mix to one hash. *)

type key
(** A class's tables and its plan's (σ_vth_inter, σ_vth_intra) pair. *)

val key : plan -> tab array -> key

module Memo : Hashtbl.S with type key = key
(** Keys are equal when the pair and every node of every table are equal
    bit for bit — not under [Float.compare]: a hit means bit-identical
    inputs, so bit-identical integrals. *)

val expect_exp_table :
  xs:float array -> ys:float array -> mu:float -> s:float -> float
(** [E\[exp(T(v))\]] for [v ~ N(mu, s²)], where [T] interpolates [ys] over
    [xs] linearly and clamps to the end values outside the grid — the same
    response [Interp.eval1d] gives the sampler. Exact per segment via the
    normal CDF; the moment engine's innermost primitive, exposed for the
    test suite's quadrature/finite-difference oracles. [s = 0] degenerates
    to a point evaluation. *)
