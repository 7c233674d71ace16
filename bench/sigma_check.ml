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

     sigma_check.exe [-o FILE] [-samples N] [-seed N] [-domains N]
                     [-circuit NAME]...                        write JSON
     sigma_check.exe -check FILE               validate a JSON file *)

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
module Json = Leakage_telemetry.Json

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
  loaded_mean : float;          (* analytic loaded total mean, A *)
  loaded_mean_mc : float;
  loaded_sigma : float;         (* analytic loaded total σ, A *)
  loaded_sigma_mc : float;
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
    loaded_mean = res.Sensitivity.loaded.Sensitivity.s_total.Sensitivity.mean;
    loaded_mean_mc = Stats.mean mc.Statistical.total_with_loading;
    loaded_sigma = res.Sensitivity.loaded.Sensitivity.s_total.Sensitivity.sigma;
    loaded_sigma_mc = Stats.std mc.Statistical.total_with_loading;
  }

(* ------------------------------------------------------------- JSON emit *)

let emit oc ~samples ~seed ~domains rows =
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"sigma-check\",\n";
  p "  \"samples\": %d,\n" samples;
  p "  \"seed\": %d,\n" seed;
  p "  \"domains\": %d,\n" domains;
  p "  \"z_gate\": %.17g,\n" z_gate;
  p "  \"speedup_gate\": %.17g,\n" speedup_gate;
  p "  \"reference_samples\": %d,\n" reference_samples;
  (* bit-identity contract constants; -check rejects a stale artifact *)
  p "  \"sample_chunk\": %d,\n" Statistical.sample_chunk;
  p "  \"sigma_l\": %.17g,\n" sigmas.Variation.sigma_l;
  p "  \"sigma_tox\": %.17g,\n" sigmas.Variation.sigma_tox;
  p "  \"sigma_vdd\": %.17g,\n" sigmas.Variation.sigma_vdd;
  p "  \"sigma_vth_inter\": %.17g,\n" sigmas.Variation.sigma_vth_inter;
  p "  \"sigma_vth_intra\": %.17g,\n" sigmas.Variation.sigma_vth_intra;
  p "  \"circuits\": [\n";
  List.iteri
    (fun i r ->
      p "    {\n";
      p "      \"name\": \"%s\",\n" r.name;
      p "      \"gates\": %d,\n" r.gates;
      p "      \"groups\": %d,\n" r.groups;
      p "      \"flagged\": %b,\n" r.flagged;
      p "      \"max_abs_z\": %.4f,\n" r.max_abs_z;
      p "      \"analytic_ms\": %.3f,\n" r.analytic_ms;
      p "      \"mc_ms\": %.3f,\n" r.mc_ms;
      p "      \"speedup_vs_10k\": %.1f,\n" r.speedup_vs_10k;
      p "      \"pool_identical\": %b,\n" r.pool_identical;
      p "      \"loaded_mean\": %.17g,\n" r.loaded_mean;
      p "      \"loaded_mean_mc\": %.17g,\n" r.loaded_mean_mc;
      p "      \"loaded_sigma\": %.17g,\n" r.loaded_sigma;
      p "      \"loaded_sigma_mc\": %.17g\n" r.loaded_sigma_mc;
      p "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n"

(* ------------------------------------------------------------ JSON check *)

let check path root =
  if Json.str "benchmark" root <> "sigma-check" then
    failwith "benchmark field is not \"sigma-check\"";
  let samples = Json.int "samples" root in
  if samples < 32 then failwith "samples must be >= 32";
  Gate_kit.chunk_const root "sample_chunk" Statistical.sample_chunk;
  (* the gates an artifact claims to have passed must be this build's *)
  if Json.num "z_gate" root <> z_gate then
    failwith "z_gate mismatch — regenerate";
  if Json.num "speedup_gate" root <> speedup_gate then
    failwith "speedup_gate mismatch — regenerate";
  let seen =
    List.map
      (fun row ->
        let name = Json.str "name" row in
        if Json.num "gates" row <= 0.0 then
          failwith (name ^ ": \"gates\" must be positive");
        if Json.num "groups" row <= 0.0 then
          failwith (name ^ ": \"groups\" must be positive");
        if Json.bool "flagged" row then
          failwith
            (name
             ^ ": linearization check flagged a component at the paper's \
                sigmas");
        let z = Json.num "max_abs_z" row in
        if not (Float.is_finite z) || z > z_gate then
          failwith
            (Printf.sprintf
               "%s: analytic mean/σ beyond %g standard errors of the MC \
                (max |z| = %g)"
               name z_gate z);
        let sp = Json.num "speedup_vs_10k" row in
        if sp < speedup_gate then
          failwith
            (Printf.sprintf "%s: speedup vs %d-sample MC only %.1fx (< %g)"
               name reference_samples sp speedup_gate);
        if not (Json.bool "pool_identical" row) then
          failwith (name ^ ": pooled results differ from sequential");
        name)
      (Json.arr "circuits" root)
  in
  List.iter
    (fun (e : Suite.entry) ->
      if not (List.mem e.Suite.label seen) then
        failwith (Printf.sprintf "circuit %S missing from results" e.Suite.label))
    (corpus ());
  Printf.printf "%s OK (%d circuits, %d MC samples)\n" path (List.length seen)
    samples

let () =
  let out = ref "BENCH_sigma.json" in
  let samples = ref reference_samples in
  let seed = ref 11 in
  let domains = ref 2 in
  let only = ref [] in
  let check_path = ref "" in
  Arg.parse
    [
      ("-o", Arg.Set_string out, "FILE output path (default BENCH_sigma.json)");
      ("-samples", Arg.Set_int samples,
       Printf.sprintf "N MC samples per circuit (default %d)" reference_samples);
      ("-seed", Arg.Set_int seed, "N PRNG seed (default 11)");
      ("-domains", Arg.Set_int domains,
       "N pool size for the bit-identity cross-check (default 2)");
      ("-circuit", Arg.String (fun c -> only := c :: !only),
       "NAME restrict to one corpus circuit (repeatable; default all)");
      ("-check", Arg.Set_string check_path,
       "FILE validate an existing JSON file and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "analytic variance propagation vs Monte-Carlo";
  if !check_path <> "" then Gate_kit.check_file !check_path (check !check_path)
  else begin
    if !samples < 32 then failwith "need -samples >= 32";
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
    let oc = open_out !out in
    emit oc ~samples:!samples ~seed:!seed ~domains:!domains rows;
    close_out oc
  end
