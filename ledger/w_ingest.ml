(* ingest-1m: the two ways a user brings a million-gate netlist to a first
   estimate. Set-up writes a 1M-gate tapped chain as .bench, saves it as an
   LKN1 snapshot and characterizes its two cells; each timed pass then
   goes .bench -> parse -> digest -> estimate and .lkn -> verified mmap
   load -> estimate. Without this workload the circuit layer is under 1%
   of every other one; its main risk is memory. *)

module Trees = Leakage_benchmarks.Trees
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Logic = Leakage_circuit.Logic
module Bench_format = Leakage_circuit.Bench_format
module Snapshot = Leakage_circuit.Snapshot
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Report = Leakage_spice.Leakage_report
module Params = Leakage_device.Params
module Physics = Leakage_device.Physics
module Rng = Leakage_numeric.Rng

let stages = 1_000_000
let tap_every = 64

type state = {
  bench : string;
  lkn : string;
  lib : Library.t;
  vec : Logic.vector;
}

let setup (ctx : Ctx.t) saves _ =
  let bench = Ctx.path ctx "chain1m.bench" and lkn = Ctx.path ctx "chain1m.lkn" in
  let nl = Trees.chain ~stages ~tap_every () in
  Bench_format.write_file bench nl;
  let (), dt =
    Ctx.timed (fun () -> Ctx.span "circuit" "Snapshot.save" (fun () -> Snapshot.save lkn nl))
  in
  saves := dt :: !saves;
  let lib = Library.create ~device:Params.d25 ~temp:(Physics.celsius_to_kelvin 25.0) () in
  Library.precharacterize ~kinds:[ Gate.Inv; Gate.Nand 2 ] lib;
  let rng = Rng.create ctx.Ctx.seed in
  let vec = Logic.random_vector rng (Array.length (Netlist.inputs nl)) in
  { bench; lkn; lib; vec }

type times = {
  parse : float;
  digest : float;
  warm : float;
  bench_total : float;
  load : float;
  lkn_total : float;
  mb : float;
}

let pass ctx st _ =
  let step layer name f =
    ctx.Ctx.attempted <- ctx.Ctx.attempted + 1;
    Ctx.timed (fun () -> Ctx.span layer name f)
  in
  let t0 = Ctx.now () in
  let nl, parse = step "circuit" "Bench_format.parse_file" (fun () -> Bench_format.parse_file st.bench) in
  let d, digest = step "circuit" "Netlist.digest" (fun () -> Netlist.digest nl) in
  let (), warm = step "circuit" "Netlist.warm" (fun () -> Netlist.warm nl) in
  let (loaded, base), _ =
    step "estimator" "Estimator.estimate_totals" (fun () -> Estimator.estimate_totals st.lib nl st.vec)
  in
  let bench_total = Ctx.now () -. t0 in
  let t0 = Ctx.now () in
  let mapped, load = step "circuit" "Snapshot.load" (fun () -> Snapshot.load ~verify:true st.lkn) in
  let (loaded', base'), _ =
    step "estimator" "Estimator.estimate_totals" (fun () ->
        Estimator.estimate_totals st.lib mapped st.vec)
  in
  let lkn_total = Ctx.now () -. t0 in
  Ctx.check ctx (Netlist.gate_count nl = stages && Netlist.gate_count mapped = stages)
    "ingest: both netlists hold %d gates" stages;
  Ctx.check ctx (Snapshot.digest_of_file st.lkn = d) "ingest: snapshot digest = parsed digest";
  Ctx.check ctx (loaded = loaded' && base = base') "ingest: mapped estimate = parsed estimate";
  let sum =
    Checksum.add_floats (Checksum.add_string Checksum.empty d)
      [ loaded.Report.isub; loaded.Report.igate; loaded.Report.ibtbt;
        base.Report.isub; base.Report.igate; base.Report.ibtbt ]
  in
  let mb = float_of_int (Unix.stat st.bench).Unix.st_size /. 1e6 in
  (sum, { parse; digest; warm; bench_total; load; lkn_total; mb })

let run (ctx : Ctx.t) =
  let saves = ref [] in
  let st = Ctx.setups ctx ~release:ignore (setup ctx saves) in
  let baseline, results, d = Ctx.timed_section ctx ~traced_passes:1 (pass ctx st) in
  Ctx.check_passes ctx (List.map fst (Option.to_list baseline @ results));
  let med f = Pctl.median (List.map (fun (_, t) -> f t) results) in
  Ctx.set ctx "bench_to_estimate_s" (med (fun t -> t.bench_total));
  Ctx.set ctx "lkn_to_estimate_s" (med (fun t -> t.lkn_total));
  if ctx.Ctx.traced then begin
    Ctx.record_counters ctx d;
    Ctx.set ctx "circuit.parse_ms" (med (fun t -> t.parse) *. 1000.0);
    Ctx.set ctx "circuit.parse_mb_s" (med (fun t -> t.mb /. t.parse));
    Ctx.set ctx "circuit.digest_ms" (med (fun t -> t.digest) *. 1000.0);
    Ctx.set ctx "circuit.warm_ms" (med (fun t -> t.warm) *. 1000.0);
    Ctx.set ctx "circuit.snapshot_load_ms" (med (fun t -> t.load) *. 1000.0);
    Ctx.set ctx "circuit.snapshot_save_ms" (Pctl.median !saves *. 1000.0)
  end
