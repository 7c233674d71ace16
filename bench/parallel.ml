(* Domain-parallel estimation gate.

   Runs the vector-resampling Monte Carlo (Vector_mc.resample) on Alu8 and
   Mult8 sequentially and on 2/4/8-domain pools and prints the timings.
   Each configuration gets an untimed warm-up pass, so the timed pass
   reads warm per-domain characterization caches (Library keeps one cache
   per domain).

   The checks are deterministic: every pooled run is bit-identical to the
   sequential one, and a telemetry diff around each pooled configuration
   shows its top-level regions went to the workers (none ran inline) with
   no characterization or DC solve, since the sequential run already
   published every key. Wall-clock speedups only print; the layer ledger
   reports them against noise-aware bounds.

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
  work : Telemetry.Snapshot.t;  (* counters over the configuration's runs *)
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

let counted f =
  let before = Telemetry.Snapshot.take () in
  let r = f () in
  (r, Telemetry.Snapshot.diff ~newer:(Telemetry.Snapshot.take ()) ~older:before)

let run_circuit ~samples ~seed ~max_domains name =
  let nl = (Suite.find name).Suite.build () in
  let lib = Library.create ~device:Params.d25 ~temp:300.0 () in
  let (seq, seq_ms), work = counted (fun () -> timed_resample ~samples ~seed lib nl) in
  let base =
    { name; gates = Netlist.gate_count nl; domains = 1; ms = seq_ms;
      speedup = 1.0; bit_identical = true; work }
  in
  let parallel_rows =
    List.filter_map
      (fun d ->
        if d > max_domains then None
        else
          Some
            (Pool.with_pool ~jobs:d (fun pool ->
                 let (r, ms), work =
                   counted (fun () -> timed_resample ~pool ~samples ~seed lib nl)
                 in
                 { base with domains = d; ms; speedup = seq_ms /. ms;
                   bit_identical = identical seq r; work })))
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
  (* one chunk would be a single-item region, which always runs inline *)
  if !samples <= Vector_mc.mc_chunk then begin
    Printf.eprintf "parallel.exe: -samples must exceed %d (one chunk)\n"
      Vector_mc.mc_chunk;
    exit 2
  end;
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
  let pooled = List.filter (fun r -> r.domains > 1) rows in
  let tag r = Printf.sprintf "%s@%dd" r.name r.domains in
  List.iter
    (fun r ->
      check r.bit_identical "%s: pooled result bit-identical to sequential"
        (tag r))
    pooled;
  (* the sequential runs characterized every key, so the zero counts
     checked below are recorded, not vacuous *)
  Gate_kit.counters_fired "parallel" [ "library.misses"; "dc.solves" ];
  List.iter
    (fun r ->
      let count name = Telemetry.Snapshot.counter_total r.work name in
      check (count "pool.regions" >= 1 && count "pool.inline_regions" = 0)
        "%s: %d regions on the workers, %d inline" (tag r)
        (count "pool.regions") (count "pool.inline_regions");
      check (count "library.misses" = 0 && count "dc.solves" = 0)
        "%s: %d library misses, %d DC solves after the sequential run"
        (tag r) (count "library.misses") (count "dc.solves"))
    pooled
