(* Analytic variance propagation vs Monte-Carlo: the sigma-check gate.

   For every circuit of the golden corpus (the paper suite plus the 16k
   tapped chain) this benchmark computes mean and σ of each leakage
   component twice — in closed form (Sensitivity.estimate_totals) and by
   sampling (Statistical.run) — and requires the analytic numbers to sit
   within 3 standard errors of the Monte-Carlo on every series: loaded and
   baseline, per component and total, mean and σ. The standard error of σ
   is kurtosis-corrected (leakage distributions are heavily lognormal, so
   the naive σ/√2n would be far too tight a gate).

   It also measures the point of the closed form: the speedup over a
   10,000-sample MC (extrapolated linearly from the measured sample count —
   MC cost is linear in samples) must be ≥ 100×, and both engines must be
   bit-identical when fanned out over a domain pool.

     sigma_check.exe [-samples N] [-seed N] [-domains N] [-circuit NAME]... *)

module Params = Leakage_device.Params
module Variation = Leakage_device.Variation
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Sensitivity = Leakage_core.Sensitivity
module Statistical = Leakage_core.Statistical
module Stats = Leakage_numeric.Stats
module Rng = Leakage_numeric.Rng
module Suite = Leakage_benchmarks.Suite
module Trees = Leakage_benchmarks.Trees
module Pool = Leakage_parallel.Pool

let device = Params.d25
let temp = 300.0
let coarse_grid = { Characterize.max_current = 3.0e-6; points = 5 }
let sigmas = Variation.paper_sigmas
let reference_samples = 10_000
let z_gate = 3.0
let speedup_gate = 100.0

(* same corpus as test/golden_suite.json *)
let corpus () =
  Suite.all
  @ [ { Suite.label = "chain16k";
        build = (fun () -> Trees.chain ~stages:16384 ~tap_every:64 ()) } ]

type row = {
  name : string;
  gates : int;
  groups : int;
  flagged : bool;
  max_abs_z : float;
  analytic_ms : float;
  mc_ms : float;
  speedup_vs_10k : float;
  pool_identical : bool;
}

(* ------------------------------------------------------------ statistics *)

let central_moment4 values mean =
  let n = Array.length values in
  let s = ref 0.0 in
  Array.iter
    (fun v ->
      let d = v -. mean in
      s := !s +. (d *. d *. d *. d))
    values;
  !s /. float_of_int n

(* z-scores of (analytic mean, analytic σ) against a sample series.
   SE(mean) = s/√n; SE(s) ≈ √(m4 − s⁴)/(2·s·√n), the asymptotic standard
   error of the sample standard deviation without a normality assumption. *)
let z_scores ~mean ~sigma values =
  let n = float_of_int (Array.length values) in
  let m = Stats.mean values and s = Stats.std values in
  let se_mean = s /. sqrt n in
  let z_mean =
    if se_mean > 0.0 then (mean -. m) /. se_mean
    else if Float.abs (mean -. m) = 0.0 then 0.0
    else Float.infinity
  in
  let z_sigma =
    if s > 0.0 then begin
      let m4 = central_moment4 values m in
      let se_s = sqrt (Float.max 0.0 (m4 -. (s *. s *. s *. s))) /. (2.0 *. s *. sqrt n) in
      if se_s > 0.0 then (sigma -. s) /. se_s
      else if Float.abs (sigma -. s) = 0.0 then 0.0
      else Float.infinity
    end
    else if sigma = 0.0 then 0.0
    else Float.infinity
  in
  (z_mean, z_sigma)

let series (samples : Statistical.sample_totals array) ~base pick =
  Array.map
    (fun (s : Statistical.sample_totals) ->
      pick (if base then s.Statistical.no_loading else s.Statistical.with_loading))
    samples

let stat_of ~base (r : Sensitivity.result) =
  if base then r.Sensitivity.baseline else r.Sensitivity.loaded

(* max |z| over every (column, component, moment) series *)
let max_z (res : Sensitivity.result) (mc : Statistical.result) =
  let worst = ref 0.0 in
  List.iter
    (fun base ->
      let st = stat_of ~base res in
      List.iter
        (fun (pick, (cs : Sensitivity.component_stat)) ->
          let zm, zs =
            z_scores ~mean:cs.Sensitivity.mean ~sigma:cs.Sensitivity.sigma
              (series mc.Statistical.samples ~base pick)
          in
          worst := Float.max !worst (Float.max (Float.abs zm) (Float.abs zs)))
        [
          ((fun c -> c.Report.isub), st.Sensitivity.s_isub);
          ((fun c -> c.Report.igate), st.Sensitivity.s_igate);
          ((fun c -> c.Report.ibtbt), st.Sensitivity.s_ibtbt);
          (Report.total, st.Sensitivity.s_total);
        ])
    [ false; true ];
  !worst

(* ------------------------------------------------------------------ run *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

let run_circuit ~samples ~domains lib crng (entry : Suite.entry) =
  let nl = entry.Suite.build () in
  let pattern = Logic.random_vector crng (Array.length (Netlist.inputs nl)) in
  let mc_seed = 1 + Rng.int crng 1_000_000 in
  (* untimed warm-up: characterization entries + lazy netlist caches *)
  ignore
    (Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib nl pattern);
  let (_, _, res), analytic_ms =
    timed (fun () ->
        Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib nl pattern)
  in
  let mc, mc_ms =
    timed (fun () ->
        Statistical.run ~n_samples:samples ~seed:mc_seed ~sigmas lib nl pattern)
  in
  (* bit-identity across pool sizes: the closed form, and the sampler *)
  let pool_identical =
    List.for_all
      (fun jobs ->
        Pool.with_pool ~jobs (fun pool ->
            let _, _, res_p =
              Sensitivity.estimate_totals ~pool ~fallback_samples:0 ~sigmas lib
                nl pattern
            in
            let mc_p =
              Statistical.run ~pool
                ~n_samples:(Stdlib.min samples 64)
                ~seed:mc_seed ~sigmas lib nl pattern
            in
            let mc_s =
              Statistical.run
                ~n_samples:(Stdlib.min samples 64)
                ~seed:mc_seed ~sigmas lib nl pattern
            in
            res_p = res && mc_p.Statistical.samples = mc_s.Statistical.samples))
      [ 1; Stdlib.max 1 domains ]
  in
  let speedup =
    mc_ms
    *. (float_of_int reference_samples /. float_of_int samples)
    /. Float.max 1e-6 analytic_ms
  in
  {
    name = entry.Suite.label;
    gates = Netlist.gate_count nl;
    groups = res.Sensitivity.groups;
    flagged = Sensitivity.flagged res;
    max_abs_z = max_z res mc;
    analytic_ms;
    mc_ms;
    speedup_vs_10k = speedup;
    pool_identical;
  }

let check cond fmt = Gate_kit.check "sigma_check" cond fmt

let () =
  let samples = ref reference_samples in
  let seed = ref 11 in
  let domains = ref 2 in
  let only = ref [] in
  Arg.parse
    [
      ("-samples", Arg.Set_int samples,
       Printf.sprintf "N MC samples per circuit (default %d)" reference_samples);
      ("-seed", Arg.Set_int seed, "N PRNG seed (default 11)");
      ("-domains", Arg.Set_int domains,
       "N pool size for the bit-identity cross-check (default 2)");
      ("-circuit", Arg.String (fun c -> only := c :: !only),
       "NAME restrict to one corpus circuit (repeatable; default all)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "analytic variance propagation vs Monte-Carlo";
  check (!samples >= 32) "-samples %d >= 32" !samples;
  let entries =
    match !only with
    | [] -> corpus ()
    | names ->
      List.filter
        (fun (e : Suite.entry) -> List.mem e.Suite.label names)
        (corpus ())
  in
  let lib = Library.create ~grid:coarse_grid ~device ~temp () in
  let rng = Rng.create !seed in
  (* per-circuit streams split up front, in corpus order, so restricting
     with -circuit never changes another circuit's pattern or MC seed *)
  let streams =
    List.map (fun (e : Suite.entry) -> (e.Suite.label, Rng.split rng)) (corpus ())
  in
  let rows =
    List.map
      (fun (e : Suite.entry) ->
        let crng = List.assoc e.Suite.label streams in
        let r = run_circuit ~samples:!samples ~domains:!domains lib crng e in
        Printf.printf
          "%-8s %6d gates  %3d groups  max|z| %5.2f  analytic %8.2f ms  \
           mc %8.1f ms  speedup(10k) %8.1fx  identical %b\n%!"
          r.name r.gates r.groups r.max_abs_z r.analytic_ms r.mc_ms
          r.speedup_vs_10k r.pool_identical;
        r)
      entries
  in
  (* the wall-clock speed gate goes last, so it never hides a statistical
     or determinism check *)
  List.iter
    (fun r ->
      check (not r.flagged)
        "%s: no linearization check flagged at the paper's sigmas" r.name;
      check (r.groups >= 1) "%s: %d groups >= 1" r.name r.groups;
      check
        (Float.is_finite r.max_abs_z && r.max_abs_z <= z_gate)
        "%s: analytic mean/σ within %g standard errors of the MC (max |z| = \
         %g)" r.name z_gate r.max_abs_z;
      check r.pool_identical "%s: pooled results bit-identical to sequential"
        r.name)
    rows;
  List.iter
    (fun r ->
      check
        (r.speedup_vs_10k >= speedup_gate)
        "%s: speedup vs %d-sample MC %.1fx >= %g" r.name reference_samples
        r.speedup_vs_10k speedup_gate)
    rows
