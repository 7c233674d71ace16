(* Domain-parallel estimation benchmark.

   Runs the vector-resampling Monte Carlo (Vector_mc.resample) on Alu8 and
   Mult8 sequentially and on 2/4/8-domain pools, checks that every parallel
   run is bit-identical to the sequential one, and emits the timings as
   BENCH_parallel.json. Each configuration gets an untimed warm-up pass so
   worker-domain characterization caches (Library uses per-domain caches)
   are populated before the timed pass.

   The host's core count is recorded as "host_cores": -check validates the
   schema and bit-identity unconditionally, but only enforces speedup >= 1.0
   for pool sizes the machine can actually run in parallel — a single-core
   CI box cannot speed anything up, and timings there would only measure
   scheduling overhead.

     parallel.exe [-o FILE] [-samples N] [-seed N] [-domains N]  write JSON
     parallel.exe -check FILE                        validate a JSON file *)

module Params = Leakage_device.Params
module Netlist = Leakage_circuit.Netlist
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Vector_mc = Leakage_incremental.Vector_mc
module Suite = Leakage_benchmarks.Suite
module Pool = Leakage_parallel.Pool
module Telemetry = Leakage_telemetry.Telemetry
module Json = Leakage_telemetry.Json

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

(* ------------------------------------------------------------- JSON emit *)

(* Counters the run is expected to have exercised; -check asserts on them. *)
let metric_names =
  [ "pool.regions"; "pool.items"; "library.hits"; "library.misses";
    "dc.solves" ]

let emit oc ~samples ~seed ~host_cores rows =
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"parallel\",\n";
  p "  \"samples\": %d,\n" samples;
  p "  \"seed\": %d,\n" seed;
  p "  \"host_cores\": %d,\n" host_cores;
  (* the fixed chunk widths the bit-identity contract depends on: a result
     is only comparable across builds that agree on these *)
  p "  \"avg_chunk\": %d,\n" Estimator.avg_chunk;
  p "  \"mc_chunk\": %d,\n" Vector_mc.mc_chunk;
  p "  \"circuits\": [\n";
  List.iteri
    (fun i r ->
      p "    {\n";
      p "      \"name\": \"%s\",\n" r.name;
      p "      \"gates\": %d,\n" r.gates;
      p "      \"domains\": %d,\n" r.domains;
      p "      \"ms\": %.3f,\n" r.ms;
      p "      \"speedup\": %.3f,\n" r.speedup;
      p "      \"bit_identical\": %b\n" r.bit_identical;
      p "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  Gate_kit.emit_metrics oc metric_names;
  p "}\n"

(* ------------------------------------------------------------ JSON check *)

let check path root =
  if Json.str "benchmark" root <> "parallel" then
    failwith "benchmark field is not \"parallel\"";
  if Json.num "samples" root <= 0.0 then failwith "samples must be positive";
  let host_cores = Json.int "host_cores" root in
  if host_cores < 1 then failwith "host_cores must be >= 1";
  (* stale chunk constants would invalidate every bit-identity claim below *)
  Gate_kit.chunk_const root "avg_chunk" Estimator.avg_chunk;
  Gate_kit.chunk_const root "mc_chunk" Vector_mc.mc_chunk;
  let seen =
    List.map
      (fun row ->
        let name = Json.str "name" row in
        let domains = Json.int "domains" row in
        let tag = Printf.sprintf "%s@%dd" name domains in
        if Json.num "gates" row <= 0.0 then
          failwith (tag ^ ": \"gates\" must be positive");
        if domains < 1 then failwith (tag ^ ": \"domains\" must be >= 1");
        if Json.num "ms" row <= 0.0 then
          failwith (tag ^ ": \"ms\" must be positive");
        let speedup = Json.num "speedup" row in
        if speedup <= 0.0 then failwith (tag ^ ": \"speedup\" must be positive");
        (* Determinism is unconditional; throughput only when the host has
           the cores to run the pool in parallel at all. *)
        if not (Json.bool "bit_identical" row) then
          failwith (tag ^ ": parallel result differs from sequential");
        if domains <= host_cores && speedup < 1.0 then
          failwith
            (Printf.sprintf "%s: speedup %.3f < 1.0 on a %d-core host" tag
               speedup host_cores);
        name)
      (Json.arr "circuits" root)
  in
  List.iter
    (fun c ->
      if not (List.mem c seen) then
        failwith (Printf.sprintf "circuit %S missing from results" c))
    circuits;
  (* the embedded telemetry summary: every expected counter present, and
     the pool / characterization paths actually fired during the run *)
  let metric key = Json.int key (Json.member "metrics" root) in
  List.iter (fun name -> ignore (metric name)) metric_names;
  if metric "pool.regions" < 1 then
    failwith "metrics: \"pool.regions\" must be >= 1 (pooled runs recorded)";
  if metric "pool.items" < 1 then
    failwith "metrics: \"pool.items\" must be >= 1";
  if metric "dc.solves" < 1 then
    failwith "metrics: \"dc.solves\" must be >= 1 (characterization ran)";
  Printf.printf "%s OK (%d rows)\n" path (List.length seen)

let () =
  let out = ref "BENCH_parallel.json" in
  let samples = ref 160 in
  let seed = ref 1 in
  let max_domains = ref 8 in
  let check_path = ref "" in
  Arg.parse
    [
      ("-o", Arg.Set_string out, "FILE output path (default BENCH_parallel.json)");
      ("-samples", Arg.Set_int samples, "N random vectors per MC run (default 160)");
      ("-seed", Arg.Set_int seed, "N PRNG seed (default 1)");
      ("-domains", Arg.Set_int max_domains,
       "N largest pool size to measure, of 2/4/8 (default 8)");
      ("-check", Arg.Set_string check_path, "FILE validate an existing JSON file and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "domain-parallel estimation benchmark";
  if !check_path <> "" then Gate_kit.check_file !check_path (check !check_path)
  else begin
    let host_cores = Domain.recommended_domain_count () in
    (* metrics ride along in the artifact; recording never changes results
       (the bit_identical rows double as proof) *)
    Telemetry.set_enabled true;
    let rows =
      List.concat_map
        (run_circuit ~samples:!samples ~seed:!seed ~max_domains:!max_domains)
        circuits
    in
    let oc = open_out !out in
    emit oc ~samples:!samples ~seed:!seed ~host_cores rows;
    close_out oc;
    List.iter
      (fun r ->
        Printf.printf
          "%-8s %4d gates  %d domain%s  %8.1f ms  speedup %5.2fx  identical %b\n"
          r.name r.gates r.domains (if r.domains = 1 then " " else "s")
          r.ms r.speedup r.bit_identical)
      rows
  end
