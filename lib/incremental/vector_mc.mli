(** Monte-Carlo leakage over random input vectors (vector resampling).

    Standby leakage depends strongly on the input state (§6); when the
    standby vector is unknown, the expected leakage and its spread come from
    resampling random primary-input vectors. Each draw differs from the
    previous one in about half the input bits — a dense move that touches
    most of the circuit — so every sample is a fresh
    {!Leakage_core.Estimator.estimate_totals} on a reused estimator scratch: one
    table lookup per gate, no incremental session to walk.

    Samples are grouped into fixed-width chunks that fan out across a
    {!Leakage_parallel.Pool} when one is given. Per-sample totals do not
    depend on the chunking at all; the chunk boundaries (a function of the
    sample count only) fix the reduction tree of the means, so results are
    bit-identical with or without a pool, at any pool size. *)

type result = {
  totals : float array;
  (** loading-aware total leakage per sampled vector, A *)
  baselines : float array;
  (** no-loading (sum-of-isolated) total per sampled vector, A *)
  summary : Leakage_numeric.Stats.summary;
  (** of [totals] *)
  baseline_summary : Leakage_numeric.Stats.summary;
  (** of [baselines] *)
  mean_components : Leakage_spice.Leakage_report.components;
  (** mean loading-aware component breakdown over the sample *)
  mean_shift_percent : float;
  (** mean per-vector loading shift, [(total - baseline)/baseline] in % *)
}

val resample :
  ?pool:Leakage_parallel.Pool.t ->
  ?seed:int ->
  samples:int ->
  Leakage_core.Library.t ->
  Leakage_circuit.Netlist.t ->
  result
(** Estimate the leakage distribution over [samples] uniform random input
    vectors (default [seed] 1), drawn in sample order from one
    {!Leakage_numeric.Rng} stream. [totals.(i)] and [baselines.(i)] are
    exactly the {!Leakage_spice.Leakage_report.total}s of
    {!Leakage_core.Estimator.estimate_totals} on the [i]-th vector. Raises
    [Invalid_argument] when [samples] is not positive. *)

val mc_chunk : int
(** Fixed chunk width of the resampling sweep (vectors per chunk). It fixes
    the summation tree of [mean_components] and [mean_shift_percent], so
    those are only reproducible across builds that agree on this constant;
    benchmark artifacts record it. *)
