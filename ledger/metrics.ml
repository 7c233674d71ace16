(* The ledger's metric table: the single list BENCHMARK.json mirrors (a
   test checks that the two agree on names, units and directions).

   End-to-end metrics are what a user of each workload sees, and every
   workload reports every one of them. The headline figure of each
   workload (the cold Fig-12 flow, the estimator sweep, the serve round,
   the file-to-estimate path) is its [pass_s]; the workload-specific
   readings behind it are reported by the traced run, next to the
   per-layer numbers, as the first block of [per_layer] below.

   Each per-layer metric names its layer and the end-to-end reading it
   should move, on the workload where it is measured ("reading@workload").
   Counters are read on every workload (that is how the zero predictions
   are checked); timings are reported on their workload and are 0
   elsewhere. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type e2e = { e_name : string; e_unit : string; e_better : better; bound : float }

(* setup_s: median of three set-ups before the timed section.
   peak_rss_mb: peak RSS of the workload process, or of its serve daemon
   when that is larger.
   pass_s: median time of one pass of the workload's user flow.
   Both times are scaled to the reference host speed (see Ctx.Probe). *)
let end_to_end =
  [
    { e_name = "setup_s"; e_unit = "s"; e_better = Lower; bound = 0.25 };
    { e_name = "peak_rss_mb"; e_unit = "MB"; e_better = Lower; bound = 0.2 };
    { e_name = "pass_s"; e_unit = "s"; e_better = Lower; bound = 0.25 };
  ]

type layer_metric = {
  name : string;
  unit_ : string;
  better : better;
  layer : string;
  target : string;  (** "reading@workload" it should move *)
}

let m layer name unit_ better target = { name; unit_; better; layer; target }

(* The workload readings: each is one workload's view of [pass_s] (or a
   figure inside it). *)
let readings =
  [
    m "workload" "fig12_s" "s" Lower "pass_s@fig12-cold";
    m "workload" "fig12_err_pct" "%" Lower "pass_s@fig12-cold";
    m "workload" "estimate_gvps" "gv/s" Higher "pass_s@vector-sweep";
    m "workload" "resample_gvps" "gv/s" Higher "pass_s@vector-sweep";
    m "workload" "sigma_s" "s" Lower "pass_s@vector-sweep";
    m "workload" "serve_rps" "req/s" Higher "pass_s@serve-mix";
    m "workload" "apply_p50_ms" "ms" Lower "pass_s@serve-mix";
    m "workload" "query_p50_ms" "ms" Lower "pass_s@serve-mix";
    m "workload" "serve_p99_ms" "ms" Lower "pass_s@serve-mix";
    m "workload" "bench_to_estimate_s" "s" Lower "pass_s@ingest-1m";
    m "workload" "lkn_to_estimate_s" "s" Lower "pass_s@ingest-1m";
  ]

let library_targets = "fig12_s@fig12-cold setup_s@vector-sweep,serve-mix,ingest-1m"
let pool_targets = "estimate_gvps,resample_gvps,sigma_s@vector-sweep apply_p50_ms@serve-mix"

let layers =
  [
    m "circuit" "circuit.parse_ms" "ms" Lower "bench_to_estimate_s@ingest-1m";
    m "circuit" "circuit.parse_mb_s" "MB/s" Higher "bench_to_estimate_s@ingest-1m";
    m "circuit" "circuit.digest_ms" "ms" Lower "bench_to_estimate_s@ingest-1m";
    m "circuit" "circuit.warm_ms" "ms" Lower "bench_to_estimate_s@ingest-1m";
    m "circuit" "circuit.snapshot_load_ms" "ms" Lower "lkn_to_estimate_s@ingest-1m";
    m "circuit" "circuit.snapshot_save_ms" "ms" Lower "setup_s@ingest-1m";
    m "circuit" "circuit.simulate_ns_per_gate" "ns" Lower "estimate_gvps@vector-sweep";
    m "spice" "spice.solve_ms_per_vector" "ms" Lower "fig12_s@fig12-cold";
    m "spice" "dc.solves" "count" Lower "fig12_s@fig12-cold";
    m "spice" "dc.sweeps" "count" Lower "fig12_s@fig12-cold";
    m "spice" "dc.nonconverged" "count" Lower "fig12_s@fig12-cold";
    m "spice" "solver.iterations" "count" Lower "fig12_s@fig12-cold";
    m "spice" "solver.nonconverged" "count" Lower "fig12_s@fig12-cold";
    m "spice" "rootfind.iterations" "count" Lower "fig12_s@fig12-cold";
    m "spice" "rootfind.nonconverged" "count" Lower "fig12_s@fig12-cold";
    m "library" "library.misses" "count" Lower library_targets;
    m "library" "library.hits" "count" Higher library_targets;
    m "library" "library.shared_hits" "count" Higher library_targets;
    m "library" "library.hit_ratio" "ratio" Higher library_targets;
    m "library" "library.build_ms" "ms" Lower library_targets;
    m "library" "library.build_ms_p50" "ms" Lower library_targets;
    m "estimator" "estimator.gate_lookups" "count" Lower "estimate_gvps@vector-sweep";
    m "estimator" "estimator.estimates" "count" Lower "estimate_gvps@vector-sweep";
    m "estimator" "estimator.ns_per_gate_vector" "ns" Lower "estimate_gvps@vector-sweep";
    m "estimator" "estimator.fig12_ms" "ms" Lower "fig12_s@fig12-cold";
    m "sensitivity" "sensitivity.ms" "ms" Lower "sigma_s@vector-sweep";
    m "sensitivity" "sensitivity.groups" "count" Lower "sigma_s@vector-sweep";
    m "sensitivity" "sensitivity.flagged_gates" "count" Lower "sigma_s@vector-sweep";
    m "sensitivity" "sensitivity.mc_fallbacks" "count" Lower "sigma_s@vector-sweep";
    m "incremental" "vector_mc.ms" "ms" Lower "resample_gvps@vector-sweep";
    m "incremental" "incr.edits" "count" Lower "resample_gvps@vector-sweep";
    m "incremental" "incr.cone_gates_per_edit" "gates" Lower "resample_gvps@vector-sweep";
    m "incremental" "incr.refreshes" "count" Lower "resample_gvps@vector-sweep";
    m "incremental" "incr.apply_us_per_batch" "us" Lower "apply_p50_ms@serve-mix";
    m "incremental" "incr.batch_groups_per_batch" "count" Higher "apply_p50_ms@serve-mix";
    m "incremental" "incr.cone_pruned_gates" "gates" Lower "apply_p50_ms@serve-mix";
    m "incremental" "incr.refresh_us" "us" Lower "query_p50_ms@serve-mix";
    m "pool" "pool.regions" "count" Lower pool_targets;
    m "pool" "pool.items" "count" Lower pool_targets;
    m "pool" "pool.inline_regions" "count" Lower pool_targets;
    m "pool" "pool.parks" "count" Lower pool_targets;
    m "pool" "pool.wakes" "count" Lower pool_targets;
    m "pool" "pool.estimate_speedup_2dom" "x" Higher "estimate_gvps@vector-sweep";
    m "pool" "pool.resample_speedup_2dom" "x" Higher "resample_gvps@vector-sweep";
    m "server" "client.ping_rtt_us_p50" "us" Lower "serve_rps@serve-mix";
    m "server" "protocol.encode_us" "us" Lower "query_p50_ms@serve-mix";
    m "server" "protocol.decode_us" "us" Lower "query_p50_ms@serve-mix";
    m "server" "protocol.bytes_per_frame" "bytes" Lower "query_p50_ms@serve-mix";
    m "server" "scheduler.queue_wait_us_p50" "us" Lower "serve_p99_ms@serve-mix";
    m "server" "scheduler.queue_wait_us_p99" "us" Lower "serve_p99_ms@serve-mix";
    m "server" "serve.exec_us_p50.apply" "us" Lower "apply_p50_ms@serve-mix";
    m "server" "serve.exec_us_p50.query" "us" Lower "query_p50_ms@serve-mix";
    m "server" "serve.jobs_run" "count" Lower "serve_p99_ms@serve-mix";
    m "server" "serve.rejected" "count" Lower "serve_p99_ms@serve-mix";
    m "server" "serve.sessions_attached" "count" Lower "serve_p99_ms@serve-mix";
    m "server" "serve.sessions_restored" "count" Lower "serve_p99_ms@serve-mix";
    m "server" "serve.sessions_evicted" "count" Lower "serve_p99_ms@serve-mix";
    m "server" "serve.checkpoints_written" "count" Lower "apply_p50_ms@serve-mix";
    m "server" "registry.restore_ms_p50" "ms" Lower "serve_p99_ms@serve-mix";
    m "server" "client.retries" "count" Lower "failed@serve-mix";
    m "server" "client.timeouts" "count" Lower "failed@serve-mix";
    m "telemetry" "telemetry.overhead_pct" "%" Lower "pass_s@each";
  ]
  @ List.map
      (fun l -> m l (l ^ ".self_ms") "ms" Lower "pass_s@each")
      [ "circuit"; "spice"; "library"; "estimator"; "sensitivity";
        "incremental"; "pool"; "server" ]

let per_layer = readings @ layers
