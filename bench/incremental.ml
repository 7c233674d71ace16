(* Incremental-vs-full re-estimation gate.

   Applies a stream of random single-gate resize edits to Mult8 and Alu8
   through an Incremental session, compares the per-edit cost against a
   full Fig-13 estimate of the same state, and checks that the session
   total matches a fresh estimate. A warm-up pass runs the same edit stream
   first so first-touch cell characterizations (shared library cache) are
   excluded from both sides of the comparison.

   A second scenario replays one large grouped batch (apply_batch) on
   mult88: sequentially and on 1/2/4/8-domain pools, checking that every
   pooled run leaves the exact same session state (bit-identical floats)
   and that the cone-disjoint group count the batch exposes does not depend
   on the pool. Speedup is only enforced for pool sizes the host can run in
   parallel.

   A third scenario exercises value-aware cone pruning on a deep tapped
   chain (gateway NAND taps held at the controlling 0): a batch of
   mid-segment retypes whose structural cones all run to the end of the
   chain — one merged group — must partition into one group per edited
   segment once settled values prune the walk, with the per-batch results
   staying bit-identical to the unpruned path and the pruned cone-size
   histogram showing the shrink.

     incremental.exe [-edits N] [-batch-edits N] [-domains N] [-seed N] *)

module Params = Leakage_device.Params
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate
module Report = Leakage_spice.Leakage_report
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Cone = Leakage_incremental.Cone
module Suite = Leakage_benchmarks.Suite
module Trees = Leakage_benchmarks.Trees
module Rng = Leakage_numeric.Rng
module Pool = Leakage_parallel.Pool
module Telemetry = Leakage_telemetry.Telemetry

let circuits = [ "mult88"; "alu88" ]
let batch_circuit = "mult88"
let batch_pool_sizes = [ 1; 2; 4; 8 ]

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

(* ------------------------------------------------------- grouped batches *)

type batch_row = {
  b_domains : int;  (* 0 = plain sequential apply_batch, no pool at all *)
  b_groups : int;
  b_us : float;     (* mean apply_batch wall time, µs *)
  b_speedup : float;
  b_identical : bool;
}

(* Exact observable state after the batch; pooled runs must reproduce the
   sequential floats bit for bit. *)
let batch_fingerprint s =
  ( Incremental.totals s,
    Incremental.baseline_totals s,
    Incremental.net_injection s,
    Incremental.assignment s,
    Incremental.pattern s )

let run_batches ~batch_edits ~seed ~max_domains =
  let nl = (Suite.find batch_circuit).Suite.build () in
  let lib = Library.create ~device:Params.d25 ~temp:300.0 () in
  let rng = Rng.create seed in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let stream = List.init batch_edits (fun _ -> Edit.random_resize rng nl) in
  let reps = 24 in
  (* Every configuration replays the identical op sequence — warm-up batch,
     rollback, then [reps] timed batches each rolled back — so the final
     fingerprints are comparable float for float. Rollbacks are untimed:
     undo is per-edit and pool-independent by design. *)
  let run_config pool =
    let s = Incremental.create ~refresh_every:0 lib nl pattern in
    let cp = Incremental.checkpoint s in
    Incremental.apply_batch ?pool s stream;
    let fp = batch_fingerprint s in
    let groups = (Incremental.stats s).Incremental.batch_groups in
    Incremental.rollback s cp;
    let t = ref 0.0 in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      Incremental.apply_batch ?pool s stream;
      t := !t +. (Unix.gettimeofday () -. t0);
      Incremental.rollback s cp
    done;
    (fp, groups, !t /. float_of_int reps *. 1e6)
  in
  let fp_seq, groups, seq_us = run_config None in
  let base =
    { b_domains = 0; b_groups = groups; b_us = seq_us; b_speedup = 1.0;
      b_identical = true }
  in
  let pooled =
    List.filter_map
      (fun d ->
        if d > max_domains then None
        else
          Some
            (Pool.with_pool ~jobs:d (fun pool ->
                 let fp, g, us = run_config (Some pool) in
                 { b_domains = d; b_groups = g; b_us = us;
                   b_speedup = seq_us /. us;
                   b_identical = Stdlib.compare fp fp_seq = 0 })))
      batch_pool_sizes
  in
  base :: pooled

(* ---------------------------------------------------- value-aware pruning *)

type pruning_row = {
  p_stages : int;
  p_edits : int;
  p_structural_groups : int;
  p_pruned_groups : int;
  p_struct_hist_count : int;
  p_struct_hist_sum : float;
  p_pruned_hist_count : int;
  p_pruned_hist_sum : float;
  p_identical : bool;
}

(* totals/baseline may differ between the pruned and unpruned batch in
   float association only (per-group vs per-cone accumulation order);
   everything per-net and per-gate must agree exactly *)
let components_close a b =
  let close x y =
    x = y || Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
  in
  close a.Report.isub b.Report.isub
  && close a.Report.igate b.Report.igate
  && close a.Report.ibtbt b.Report.ibtbt

let run_pruning () =
  let stages = 4096 and tap_every = 64 in
  let nl = Trees.chain ~stages ~tap_every () in
  let lib = Library.create ~device:Params.d25 ~temp:300.0 () in
  (* all-zero pattern: every gateway tap carries the controlling 0, pinning
     the segment boundaries *)
  let pattern = Array.make (Array.length (Netlist.inputs nl)) Logic.Zero in
  (* retype one mid-segment inverter in every 8th segment: structurally each
     cone runs to the end of the chain, merging the whole batch into one
     group; with settled values the walk stops at the next pinned gateway *)
  let edits =
    List.init 8 (fun i ->
        Edit.Retype ((i * 8 * tap_every) + (tap_every / 2), Gate.Buf))
  in
  let arr = Array.of_list edits in
  let structural_groups = Array.length (Cone.Partition.groups nl arr) in
  let pruned = Incremental.create ~refresh_every:0 lib nl pattern in
  let pruned_groups = Array.length (Incremental.preview_groups pruned edits) in
  let before = Telemetry.Snapshot.take () in
  Incremental.apply_batch pruned edits;
  let after = Telemetry.Snapshot.take () in
  let unpruned = Incremental.create ~refresh_every:0 lib nl pattern in
  Incremental.apply_batch ~prune:false unpruned edits;
  let identical =
    let t1, b1, inj1, a1, p1 = batch_fingerprint pruned in
    let t2, b2, inj2, a2, p2 = batch_fingerprint unpruned in
    inj1 = inj2 && a1 = a2 && p1 = p2 && components_close t1 t2
    && components_close b1 b2
  in
  let dcount name =
    Telemetry.Snapshot.histogram_count after name
    - Telemetry.Snapshot.histogram_count before name
  in
  let dsum name =
    Telemetry.Snapshot.histogram_sum after name
    -. Telemetry.Snapshot.histogram_sum before name
  in
  {
    p_stages = stages;
    p_edits = List.length edits;
    p_structural_groups = structural_groups;
    p_pruned_groups = pruned_groups;
    p_struct_hist_count = dcount "incr.cone_struct_gates";
    p_struct_hist_sum = dsum "incr.cone_struct_gates";
    p_pruned_hist_count = dcount "incr.cone_pruned_gates";
    p_pruned_hist_sum = dsum "incr.cone_pruned_gates";
    p_identical = identical;
  }

let check cond fmt = Gate_kit.check "incremental" cond fmt

let () =
  let edits = ref 1000 in
  let batch_edits = ref 64 in
  let max_domains = ref 8 in
  let seed = ref 1 in
  Arg.parse
    [
      ("-edits", Arg.Set_int edits, "N random resize edits per circuit (default 1000)");
      ("-batch-edits", Arg.Set_int batch_edits,
       "N resize edits per grouped batch (default 64)");
      ("-domains", Arg.Set_int max_domains,
       "N largest batch pool size to measure, of 1/2/4/8 (default 8)");
      ("-seed", Arg.Set_int seed, "N PRNG seed (default 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "incremental re-estimation gate";
  let batch_edits = !batch_edits in
  check (batch_edits >= 64)
    "-batch-edits %d >= 64: large enough to exercise grouping" batch_edits;
  let host_cores = Domain.recommended_domain_count () in
  (* the counter checks below read this run's telemetry; recording never
     changes results (the bit-identity checks double as proof) *)
  Telemetry.set_enabled true;
  let rows = List.map (run_circuit ~edits:!edits ~seed:!seed) circuits in
  let batch_rows = run_batches ~batch_edits ~seed:!seed ~max_domains:!max_domains in
  let pruning = run_pruning () in
  List.iter
    (fun r ->
      Printf.printf
        "%-8s %4d gates  full %8.1f us  incr %7.1f us  speedup %6.1fx  rel %.1e\n"
        r.name r.gates r.full_us r.incr_us r.speedup r.rel_error)
    rows;
  List.iter
    (fun (b : batch_row) ->
      Printf.printf
        "%-8s batch %3d edits  %d group%s  %s  %8.1f us  speedup %5.2fx  identical %b\n"
        batch_circuit batch_edits b.b_groups
        (if b.b_groups = 1 then " " else "s")
        (if b.b_domains = 0 then "sequential"
         else if b.b_domains = 1 then "1 domain  "
         else Printf.sprintf "%d domains " b.b_domains)
        b.b_us b.b_speedup b.b_identical)
    batch_rows;
  Printf.printf
    "chain%d   pruning %d edits  structural %d group%s -> pruned %d groups  \
     cone gates %.0f -> %.0f  identical %b\n"
    pruning.p_stages pruning.p_edits pruning.p_structural_groups
    (if pruning.p_structural_groups = 1 then "" else "s")
    pruning.p_pruned_groups pruning.p_struct_hist_sum
    pruning.p_pruned_hist_sum pruning.p_identical;
  List.iter
    (fun r ->
      check (r.rel_error >= 0.0 && r.rel_error < 1e-9)
        "%s: session total within rel_error %.3e of a fresh estimate, in \
         [0, 1e-9)" r.name r.rel_error)
    rows;
  (* grouped-batch scenario: determinism is unconditional *)
  let seq_groups = (List.hd batch_rows).b_groups in
  let tag (b : batch_row) = Printf.sprintf "batch@%dd" b.b_domains in
  List.iter
    (fun (b : batch_row) ->
      (* the partition is a function of netlist and batch alone *)
      check
        (b.b_groups >= 1 && b.b_groups <= batch_edits
         && b.b_groups = seq_groups)
        "%s: %d groups in [1, %d], same as sequential" (tag b) b.b_groups
        batch_edits;
      if b.b_domains >= 1 then
        check b.b_identical "%s: pooled batch state bit-identical to sequential"
          (tag b))
    batch_rows;
  (* value-aware pruning scenario: the pruned partition must expose strictly
     more (hence smaller) groups than the structural one, with bit-identical
     results, and the cone-size histograms must show the shrink *)
  let p = pruning in
  check (p.p_structural_groups >= 1) "pruning: %d structural groups >= 1"
    p.p_structural_groups;
  check (p.p_pruned_groups > p.p_structural_groups)
    "pruning: %d pruned groups more than %d structural groups"
    p.p_pruned_groups p.p_structural_groups;
  check p.p_identical "pruning: pruned batch state bit-identical to unpruned";
  check (p.p_struct_hist_count >= p.p_edits)
    "pruning: structural cone histogram has %d >= %d observations"
    p.p_struct_hist_count p.p_edits;
  check (p.p_pruned_hist_count >= p.p_edits)
    "pruning: pruned cone histogram has %d >= %d observations"
    p.p_pruned_hist_count p.p_edits;
  check (p.p_pruned_hist_sum < p.p_struct_hist_sum)
    "pruning: pruned cones (%.0f gates) smaller than structural (%.0f)"
    p.p_pruned_hist_sum p.p_struct_hist_sum;
  Gate_kit.counters_fired "incremental"
    [ "incr.edits"; "incr.batches"; "dc.solves" ];
  (* batch throughput only for pool sizes the host can actually run in
     parallel, and last, so a wall-clock trip never hides a check above *)
  List.iter
    (fun (b : batch_row) ->
      if b.b_domains >= 2 && b.b_domains <= host_cores then
        check (b.b_speedup >= 1.0) "%s: speedup %.3f >= 1.0 on a %d-core host"
          (tag b) b.b_speedup host_cores;
      if b.b_domains = 4 && host_cores >= 8 then
        check (b.b_speedup >= 1.5)
          "%s: speedup %.3f >= 1.5 at 4 domains on a %d-core host" (tag b)
          b.b_speedup host_cores)
    batch_rows
