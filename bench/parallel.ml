(* Domain-parallel estimation gate.

   Runs the vector-resampling Monte Carlo (Vector_mc.resample) on Alu8 and
   Mult8 sequentially and on 2/4/8-domain pools, prints the timings, and
   checks that every pooled run is bit-identical to the sequential one.
   Each configuration gets an untimed warm-up pass so worker-domain
   characterization caches (Library uses per-domain caches) are populated
   before the timed pass.

   Speedup >= 1.0 is only enforced for pool sizes the host can actually run
   in parallel — a single-core CI box cannot speed anything up, and timings
   there would only measure scheduling overhead.

     parallel.exe [-samples N] [-seed N] [-domains N] *)

module Params = Leakage_device.Params
module Netlist = Leakage_circuit.Netlist
module Library = Leakage_core.Library
module Vector_mc = Leakage_incremental.Vector_mc
module Suite = Leakage_benchmarks.Suite
module Pool = Leakage_parallel.Pool
module Telemetry = Leakage_telemetry.Telemetry

let circuits = [ "alu88"; "mult88" ]
let pool_sizes = [ 2; 4; 8 ]

type row = {
  name : string;
  gates : int;
  domains : int;
  ms : float;
  speedup : float;
  bit_identical : bool;
}

let identical (a : Vector_mc.result) (b : Vector_mc.result) =
  a.Vector_mc.totals = b.Vector_mc.totals
  && a.Vector_mc.baselines = b.Vector_mc.baselines
  && a.Vector_mc.mean_components = b.Vector_mc.mean_components
  && a.Vector_mc.mean_shift_percent = b.Vector_mc.mean_shift_percent

let timed_resample ?pool ~samples ~seed lib nl =
  (* warm-up: populate (per-domain) characterization caches *)
  ignore (Vector_mc.resample ?pool ~seed ~samples lib nl);
  let t0 = Unix.gettimeofday () in
  let r = Vector_mc.resample ?pool ~seed ~samples lib nl in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

let run_circuit ~samples ~seed ~max_domains name =
  let nl = (Suite.find name).Suite.build () in
  let lib = Library.create ~device:Params.d25 ~temp:300.0 () in
  let seq, seq_ms = timed_resample ~samples ~seed lib nl in
  let base =
    { name; gates = Netlist.gate_count nl; domains = 1; ms = seq_ms;
      speedup = 1.0; bit_identical = true }
  in
  let parallel_rows =
    List.filter_map
      (fun d ->
        if d > max_domains then None
        else
          Some
            (Pool.with_pool ~jobs:d (fun pool ->
                 let r, ms = timed_resample ~pool ~samples ~seed lib nl in
                 { base with domains = d; ms; speedup = seq_ms /. ms;
                   bit_identical = identical seq r })))
      pool_sizes
  in
  base :: parallel_rows

let check cond fmt = Gate_kit.check "parallel" cond fmt

let () =
  let samples = ref 160 in
  let seed = ref 1 in
  let max_domains = ref 8 in
  Arg.parse
    [
      ("-samples", Arg.Set_int samples, "N random vectors per MC run (default 160)");
      ("-seed", Arg.Set_int seed, "N PRNG seed (default 1)");
      ("-domains", Arg.Set_int max_domains,
       "N largest pool size to measure, of 2/4/8 (default 8)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "domain-parallel estimation gate";
  let host_cores = Domain.recommended_domain_count () in
  (* the counter checks below read this run's telemetry; recording never
     changes results (the bit-identity checks double as proof) *)
  Telemetry.set_enabled true;
  let rows =
    List.concat_map
      (run_circuit ~samples:!samples ~seed:!seed ~max_domains:!max_domains)
      circuits
  in
  List.iter
    (fun r ->
      Printf.printf
        "%-8s %4d gates  %d domain%s  %8.1f ms  speedup %5.2fx  identical %b\n"
        r.name r.gates r.domains (if r.domains = 1 then " " else "s")
        r.ms r.speedup r.bit_identical)
    rows;
  (* Determinism is unconditional and checked first, so a wall-clock trip
     never hides it; throughput only when the host has the cores to run the
     pool in parallel at all. *)
  let pooled = List.filter (fun r -> r.domains > 1) rows in
  let tag r = Printf.sprintf "%s@%dd" r.name r.domains in
  List.iter
    (fun r ->
      check r.bit_identical "%s: pooled result bit-identical to sequential"
        (tag r))
    pooled;
  Gate_kit.counters_fired "parallel"
    [ "pool.regions"; "pool.items"; "dc.solves" ];
  List.iter
    (fun r ->
      if r.domains <= host_cores then
        check (r.speedup >= 1.0) "%s: speedup %.3f >= 1.0 on a %d-core host"
          (tag r) r.speedup host_cores)
    pooled
