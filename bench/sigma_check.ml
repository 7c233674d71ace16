(* Analytic variance propagation vs Monte-Carlo: the sigma-check gate.

   For every circuit of the golden corpus (the paper suite plus the 16k
   tapped chain) this benchmark computes mean and σ of each leakage
   component twice — in closed form (Sensitivity.estimate_totals) and by
   sampling (Statistical.run) — and requires the analytic numbers to sit
   within 3 standard errors of the Monte-Carlo on every series: loaded and
   baseline, per component and total, mean and σ. The standard error of σ
   is kurtosis-corrected (leakage distributions are heavily lognormal, so
   the naive σ/√2n would be far too tight a gate).

   The point of the closed form is gated by work counts, which read the
   same on every run: the analytic pass's table integrals must be one
   fixed count per response class (the same on every circuit), with no
   more classes than library entries the circuit reads, so its work scales
   with the classes, never with gates or samples; and it must run no DC
   solve and draw no Monte-Carlo sample (a sampling fallback would do
   both). The wall-clock speedup over a 10,000-sample MC (extrapolated
   linearly from the measured sample count) is printed, not gated. Both
   engines must be bit-identical when fanned out over a domain pool.

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
module Estimator = Leakage_core.Estimator
module Tm = Leakage_telemetry.Telemetry

let device = Params.d25
let temp = 300.0
let coarse_grid = { Characterize.max_current = 3.0e-6; points = 5 }
let sigmas = Variation.paper_sigmas
let reference_samples = 10_000
let z_gate = 3.0

(* same corpus as test/golden_suite.json *)
let corpus () =
  Suite.all
  @ [ { Suite.label = "chain16k";
        build = (fun () -> Trees.chain ~stages:16384 ~tap_every:64 ()) } ]

type row = {
  name : string;
  gates : int;
  groups : int;
  entries : int;             (* distinct library entries the gates read *)
  flagged : bool;
  max_abs_z : float;
  analytic_ms : float;
  mc_ms : float;
  speedup_vs_10k : float;
  pool_identical : bool;
  analytic : int list;       (* the [analytic_counters] across one pass *)
  mc : int list;             (* the [mc_counters] across the MC run *)
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

(* ----------------------------------------------------------------- work *)

let analytic_counters =
  [ "sensitivity.classes"; "sensitivity.table_integrals";
    "sensitivity.fallbacks"; "statistical.samples"; "dc.solves" ]

let mc_counters = [ "statistical.samples"; "statistical.table_evals" ]

(* The named counters' growth across [f], with telemetry on. *)
let counted names f =
  let was = Tm.enabled () in
  Tm.set_enabled true;
  Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
  let read () =
    let snap = Tm.Snapshot.take () in
    List.map (Tm.Snapshot.counter_total snap) names
  in
  let before = read () in
  let r = f () in
  (r, List.map2 ( - ) (read ()) before)

(* Distinct (kind, strength, vector) entries the circuit's gates read: a
   class holds gates with equal threshold tables, so there are never more
   classes than entries. *)
let distinct_entries lib nl pattern =
  let seen = Hashtbl.create 64 in
  let (), _, _ =
    Estimator.estimate_fold ~init:()
      ~f:(fun () _ (e : Characterize.entry) ~loaded:_ ~isolated:_ ->
        Hashtbl.replace seen
          (e.Characterize.kind, e.Characterize.strength, e.Characterize.vector)
          ())
      lib nl pattern
  in
  Hashtbl.length seen

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
  (* the same pass again, untimed, with its work counted *)
  let _, analytic =
    counted analytic_counters (fun () ->
        Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib nl pattern)
  in
  let (mc, mc_ms), mc_work =
    counted mc_counters (fun () ->
        timed (fun () ->
            Statistical.run ~n_samples:samples ~seed:mc_seed ~sigmas lib nl
              pattern))
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
    entries = distinct_entries lib nl pattern;
    flagged = Sensitivity.flagged res;
    max_abs_z = max_z res mc;
    analytic_ms;
    mc_ms;
    speedup_vs_10k = speedup;
    pool_identical;
    analytic;
    mc = mc_work;
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
  (* Work, in counts: the analytic pass costs one fixed number of table
     integrals per class (per_class, the same on every circuit), and a
     circuit has no more classes than entries, whatever its gate count;
     it solves nothing and samples nothing. The MC draws what it was
     asked for: one threshold-table evaluation per gate and sample. *)
  let per_class = ref None in
  List.iter
    (fun r ->
      match (r.analytic, r.mc) with
      | [ classes; integrals; fallbacks; drawn; solves ], [ mc_samples; evals ]
        ->
        check
          (classes = r.groups && integrals > 0 && integrals mod classes = 0)
          "%s: %d table integrals over %d classes, a whole number per class"
          r.name integrals classes;
        let k = integrals / Stdlib.max 1 classes in
        (match !per_class with None -> per_class := Some k | Some _ -> ());
        check
          (Some k = !per_class)
          "%s: %d integrals per class, as on every circuit" r.name k;
        check
          (r.groups <= r.entries)
          "%s: %d classes <= %d library entries read (%d gates)" r.name
          r.groups r.entries r.gates;
        check
          (solves = 0 && drawn = 0 && fallbacks = 0)
          "%s: analytic pass ran %d DC solves, drew %d samples, %d fallbacks \
           (none)" r.name solves drawn fallbacks;
        check
          (mc_samples = !samples && evals = mc_samples * r.gates)
          "%s: MC drew %d samples, %d table evaluations (samples x gates)"
          r.name mc_samples evals
      | _ -> assert false)
    rows
