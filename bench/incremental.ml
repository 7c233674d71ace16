(* Incremental-vs-full re-estimation gate.

   Applies a stream of random single-gate resize edits to Mult8 and Alu8
   through an Incremental session, compares the per-edit cost against a
   full Fig-13 estimate of the same state, and checks that the session
   total matches a fresh estimate. A warm-up pass runs the same edit stream
   first so first-touch cell characterizations (shared library cache) are
   excluded from both sides of the comparison.

   A second scenario applies one large batch (apply_batch) on mult88 and
   the same edits one at a time on a second session. The batch stages
   every edit and drains one worklist, so it must do no more gate work
   (logic evaluations, leakage lookups) than the per-edit walk and no more
   than one estimate's gate visits, and it must end within 1e-9 of a fresh
   estimate. Both wall times print; neither is a check.

     incremental.exe [-edits N] [-batch-edits N] [-seed N] *)

module Params = Leakage_device.Params
module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate
module Report = Leakage_spice.Leakage_report
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Suite = Leakage_benchmarks.Suite
module Rng = Leakage_numeric.Rng
module Telemetry = Leakage_telemetry.Telemetry

let circuits = [ "mult88"; "alu88" ]
let batch_circuit = "mult88"

type row = {
  name : string;
  gates : int;
  full_us : float;
  incr_us : float;
  speedup : float;
  rel_error : float;
}

let run_circuit ~edits ~seed name =
  let nl = (Suite.find name).Suite.build () in
  let lib = Library.create ~device:Params.d25 ~temp:300.0 () in
  let rng = Rng.create seed in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let stream = Array.init edits (fun _ -> Edit.random_resize rng nl) in
  (* warm-up: populate the characterization cache along the edit stream *)
  let warm = Incremental.create lib nl pattern in
  Array.iter (Incremental.apply warm) stream;
  (* timed incremental pass on a fresh session *)
  let session = Incremental.create lib nl pattern in
  let t0 = Unix.gettimeofday () in
  Array.iter (Incremental.apply session) stream;
  let incr_us = (Unix.gettimeofday () -. t0) /. float_of_int edits *. 1e6 in
  (* timed full estimates of the same final state *)
  let nl' = Incremental.current_netlist session in
  let p' = Incremental.pattern session in
  let reps = Stdlib.min edits 50 in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Estimator.estimate lib nl' p')
  done;
  let full_us = (Unix.gettimeofday () -. t1) /. float_of_int reps *. 1e6 in
  let fresh = Estimator.estimate lib nl' p' in
  let rel_error =
    let a = Report.total (Incremental.totals session)
    and b = Report.total fresh.Estimator.totals in
    Float.abs (a -. b) /. Float.abs b
  in
  {
    name;
    gates = Netlist.gate_count nl;
    full_us;
    incr_us;
    speedup = full_us /. incr_us;
    rel_error;
  }

(* --------------------------------------------------------------- batches *)

type batch_row = {
  b_gates : int;
  b_edits : int;
  b_batch_evals : int;     (* logic evaluations of the one batch *)
  b_batch_lookups : int;   (* leakage lookups of the one batch *)
  b_single_evals : int;    (* the same edits applied one at a time *)
  b_single_lookups : int;
  b_batch_us : float;
  b_single_us : float;
  b_rel_error : float;     (* batched session vs a fresh estimate *)
}

let run_batch ~batch_edits ~seed =
  let nl = (Suite.find batch_circuit).Suite.build () in
  let lib = Library.create ~device:Params.d25 ~temp:300.0 () in
  let rng = Rng.create seed in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let stream = List.init batch_edits (fun _ -> Edit.random_resize rng nl) in
  (* warm-up: neither timed side pays first-touch characterization (the
     per-edit walk also resolves the intermediate entries of a gate that
     the stream edits twice) *)
  Incremental.apply_batch (Incremental.create lib nl pattern) stream;
  List.iter (Incremental.apply (Incremental.create lib nl pattern)) stream;
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  let batched = Incremental.create ~refresh_every:0 lib nl pattern in
  let batch_us = timed (fun () -> Incremental.apply_batch batched stream) in
  let single = Incremental.create ~refresh_every:0 lib nl pattern in
  let single_us =
    timed (fun () -> List.iter (Incremental.apply single) stream)
  in
  let fresh =
    Estimator.estimate lib
      (Incremental.current_netlist batched)
      (Incremental.pattern batched)
  in
  let sb = Incremental.stats batched and ss = Incremental.stats single in
  let a = Report.total (Incremental.totals batched)
  and b = Report.total fresh.Estimator.totals in
  {
    b_gates = Netlist.gate_count nl;
    b_edits = batch_edits;
    b_batch_evals = sb.Incremental.logic_evals;
    b_batch_lookups = sb.Incremental.leakage_lookups;
    b_single_evals = ss.Incremental.logic_evals;
    b_single_lookups = ss.Incremental.leakage_lookups;
    b_batch_us = batch_us;
    b_single_us = single_us;
    b_rel_error = Float.abs (a -. b) /. Float.abs b;
  }

let check cond fmt = Gate_kit.check "incremental" cond fmt

let () =
  let edits = ref 1000 in
  let batch_edits = ref 64 in
  let seed = ref 1 in
  Arg.parse
    [
      ("-edits", Arg.Set_int edits, "N random resize edits per circuit (default 1000)");
      ("-batch-edits", Arg.Set_int batch_edits,
       "N resize edits in the batch (default 64)");
      ("-seed", Arg.Set_int seed, "N PRNG seed (default 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "incremental re-estimation gate";
  (* the counter checks below read this run's telemetry; recording never
     changes results *)
  Telemetry.set_enabled true;
  let rows = List.map (run_circuit ~edits:!edits ~seed:!seed) circuits in
  let b = run_batch ~batch_edits:!batch_edits ~seed:!seed in
  List.iter
    (fun r ->
      Printf.printf
        "%-8s %4d gates  full %8.1f us  incr %7.1f us  speedup %6.1fx  rel %.1e\n"
        r.name r.gates r.full_us r.incr_us r.speedup r.rel_error)
    rows;
  Printf.printf
    "%-8s batch %3d edits  %8.1f us  (%d evals, %d lookups)  one at a time \
     %8.1f us  (%d evals, %d lookups)  rel %.1e\n"
    batch_circuit b.b_edits b.b_batch_us b.b_batch_evals b.b_batch_lookups
    b.b_single_us b.b_single_evals b.b_single_lookups b.b_rel_error;
  List.iter
    (fun r ->
      check (r.rel_error >= 0.0 && r.rel_error < 1e-9)
        "%s: session total within rel_error %.3e of a fresh estimate, in \
         [0, 1e-9)" r.name r.rel_error)
    rows;
  check (b.b_batch_evals <= b.b_single_evals)
    "batch: %d logic evals <= %d applied one at a time" b.b_batch_evals
    b.b_single_evals;
  check (b.b_batch_lookups <= b.b_single_lookups)
    "batch: %d leakage lookups <= %d applied one at a time" b.b_batch_lookups
    b.b_single_lookups;
  check (b.b_batch_evals <= b.b_gates && b.b_batch_lookups <= b.b_gates)
    "batch: %d evals and %d lookups <= %d gates, one estimate's visits"
    b.b_batch_evals b.b_batch_lookups b.b_gates;
  check (b.b_rel_error >= 0.0 && b.b_rel_error < 1e-9)
    "batch: session total within rel_error %.3e of a fresh estimate, in \
     [0, 1e-9)" b.b_rel_error;
  Gate_kit.counters_fired "incremental"
    [ "incr.edits"; "incr.batches"; "dc.solves" ]
