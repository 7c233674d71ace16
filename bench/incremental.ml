(* Incremental-vs-full re-estimation benchmark.

   Applies a stream of random single-gate resize edits to Mult8 and Alu8
   through an Incremental session and compares the per-edit cost against a
   full Fig-13 estimate of the same state, emitting the result as
   BENCH_incremental.json. A warm-up pass runs the same edit stream first so
   first-touch cell characterizations (shared library cache) are excluded
   from both sides of the comparison.

   A second scenario replays one large grouped batch (apply_batch) on
   mult88: sequentially and on 1/2/4/8-domain pools, checking that every
   pooled run leaves the exact same session state (bit-identical floats) and
   recording the cone-disjoint group count the batch exposes. Speedup is
   enforced by -check only for pool sizes within the recorded host_cores,
   like BENCH_parallel.json.

   A third scenario exercises value-aware cone pruning on a deep tapped
   chain (gateway NAND taps held at the controlling 0): a batch of
   mid-segment retypes whose structural cones all run to the end of the
   chain — one merged group — must partition into one group per edited
   segment once settled values prune the walk, with the per-batch results
   staying bit-identical to the unpruned path. The pruned and structural
   cone-size histogram deltas ride along in the artifact.

     incremental.exe [-o FILE] [-edits N] [-batch-edits N] [-domains N]
                     [-seed N]                       write the JSON
     incremental.exe -check FILE                     validate a JSON file *)

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
module Vector_mc = Leakage_incremental.Vector_mc
module Suite = Leakage_benchmarks.Suite
module Trees = Leakage_benchmarks.Trees
module Rng = Leakage_numeric.Rng
module Pool = Leakage_parallel.Pool
module Telemetry = Leakage_telemetry.Telemetry
module Json = Leakage_telemetry.Json

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
  logic_evals_per_edit : float;
  lookups_per_edit : float;
  refreshes : int;
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
  let st = Incremental.stats session in
  {
    name;
    gates = Netlist.gate_count nl;
    full_us;
    incr_us;
    speedup = full_us /. incr_us;
    rel_error;
    logic_evals_per_edit =
      float_of_int st.Incremental.logic_evals /. float_of_int edits;
    lookups_per_edit =
      float_of_int st.Incremental.leakage_lookups /. float_of_int edits;
    refreshes = st.Incremental.refreshes;
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
  p_tap_every : int;
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
    p_tap_every = tap_every;
    p_edits = List.length edits;
    p_structural_groups = structural_groups;
    p_pruned_groups = pruned_groups;
    p_struct_hist_count = dcount "incr.cone_struct_gates";
    p_struct_hist_sum = dsum "incr.cone_struct_gates";
    p_pruned_hist_count = dcount "incr.cone_pruned_gates";
    p_pruned_hist_sum = dsum "incr.cone_pruned_gates";
    p_identical = identical;
  }

(* ------------------------------------------------------------- JSON emit *)

(* Counters the run is expected to have exercised; -check asserts on them. *)
let metric_names =
  [ "incr.edits"; "incr.batches"; "incr.refreshes"; "library.misses";
    "dc.solves" ]

let emit oc ~edits ~seed ~batch_edits ~host_cores rows batch_rows pruning =
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"incremental\",\n";
  p "  \"edits\": %d,\n" edits;
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
      p "      \"full_us\": %.3f,\n" r.full_us;
      p "      \"incr_us\": %.3f,\n" r.incr_us;
      p "      \"speedup\": %.3f,\n" r.speedup;
      p "      \"rel_error\": %.3e,\n" r.rel_error;
      p "      \"logic_evals_per_edit\": %.3f,\n" r.logic_evals_per_edit;
      p "      \"lookups_per_edit\": %.3f,\n" r.lookups_per_edit;
      p "      \"refreshes\": %d\n" r.refreshes;
      p "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p "  \"batch_circuit\": \"%s\",\n" batch_circuit;
  p "  \"batch_edits\": %d,\n" batch_edits;
  p "  \"batches\": [\n";
  List.iteri
    (fun i (b : batch_row) ->
      p "    {\n";
      p "      \"domains\": %d,\n" b.b_domains;
      p "      \"groups\": %d,\n" b.b_groups;
      p "      \"us_per_batch\": %.3f,\n" b.b_us;
      p "      \"speedup\": %.3f,\n" b.b_speedup;
      p "      \"bit_identical\": %b\n" b.b_identical;
      p "    }%s\n" (if i = List.length batch_rows - 1 then "" else ","))
    batch_rows;
  p "  ],\n";
  p "  \"pruning_stages\": %d,\n" pruning.p_stages;
  p "  \"pruning_tap_every\": %d,\n" pruning.p_tap_every;
  p "  \"pruning_edits\": %d,\n" pruning.p_edits;
  p "  \"pruning_structural_groups\": %d,\n" pruning.p_structural_groups;
  p "  \"pruning_pruned_groups\": %d,\n" pruning.p_pruned_groups;
  p "  \"pruning_struct_hist_count\": %d,\n" pruning.p_struct_hist_count;
  p "  \"pruning_struct_hist_sum\": %.17g,\n" pruning.p_struct_hist_sum;
  p "  \"pruning_pruned_hist_count\": %d,\n" pruning.p_pruned_hist_count;
  p "  \"pruning_pruned_hist_sum\": %.17g,\n" pruning.p_pruned_hist_sum;
  p "  \"pruning_bit_identical\": %b,\n" pruning.p_identical;
  Gate_kit.emit_metrics oc metric_names;
  p "}\n"

(* ------------------------------------------------------------ JSON check *)

let check path root =
  if Json.str "benchmark" root <> "incremental" then
    failwith "benchmark field is not \"incremental\"";
  if Json.num "edits" root <= 0.0 then failwith "edits must be positive";
  let host_cores = Json.int "host_cores" root in
  if host_cores < 1 then failwith "host_cores must be >= 1";
  (* stale chunk constants would invalidate every bit-identity claim below *)
  Gate_kit.chunk_const root "avg_chunk" Estimator.avg_chunk;
  Gate_kit.chunk_const root "mc_chunk" Vector_mc.mc_chunk;
  let seen =
    List.map
      (fun row ->
        let name = Json.str "name" row in
        let ok_positive key =
          if Json.num key row <= 0.0 then
            failwith (Printf.sprintf "%s: %S must be positive" name key)
        in
        ok_positive "gates";
        ok_positive "full_us";
        ok_positive "incr_us";
        ok_positive "speedup";
        let rel = Json.num "rel_error" row in
        if not (rel >= 0.0 && rel < 1e-9) then
          failwith
            (Printf.sprintf "%s: rel_error %.3e out of bounds [0, 1e-9)" name
               rel);
        ignore (Json.num "logic_evals_per_edit" row);
        ignore (Json.num "lookups_per_edit" row);
        name)
      (Json.arr "circuits" root)
  in
  List.iter
    (fun c ->
      if not (List.mem c seen) then
        failwith (Printf.sprintf "circuit %S missing from results" c))
    circuits;
  (* grouped-batch scenario: determinism unconditionally, throughput only
     for pool sizes the recorded host could actually run in parallel *)
  if Json.str "batch_circuit" root <> batch_circuit then
    failwith (Printf.sprintf "batch_circuit is not %S" batch_circuit);
  let batch_edits = Json.int "batch_edits" root in
  if batch_edits < 64 then
    failwith
      (Printf.sprintf "batch_edits %d < 64: too small to exercise grouping"
         batch_edits);
  let batches = Json.arr "batches" root in
  if batches = [] then failwith "empty \"batches\" array";
  let seq_groups = ref (-1) in
  List.iter
    (fun row ->
      let domains = Json.int "domains" row in
      let tag = Printf.sprintf "batch@%dd" domains in
      let groups = Json.int "groups" row in
      if groups < 1 || groups > batch_edits then
        failwith (Printf.sprintf "%s: groups %d out of [1, %d]" tag groups
                    batch_edits);
      (* the partition is a function of netlist and batch alone *)
      if !seq_groups < 0 then seq_groups := groups
      else if groups <> !seq_groups then
        failwith (Printf.sprintf "%s: groups %d differ from sequential %d"
                    tag groups !seq_groups);
      if Json.num "us_per_batch" row <= 0.0 then
        failwith (tag ^ ": \"us_per_batch\" must be positive");
      if not (Json.bool "bit_identical" row) then
        failwith (tag ^ ": pooled batch state differs from sequential");
      let speedup = Json.num "speedup" row in
      if speedup <= 0.0 then failwith (tag ^ ": \"speedup\" must be positive");
      if domains >= 2 && domains <= host_cores && speedup < 1.0 then
        failwith
          (Printf.sprintf "%s: speedup %.3f < 1.0 on a %d-core host" tag
             speedup host_cores);
      if domains = 4 && host_cores >= 8 && speedup < 1.5 then
        failwith
          (Printf.sprintf
             "%s: speedup %.3f < 1.5 at 4 domains on a %d-core host" tag
             speedup host_cores))
    batches;
  (* value-aware pruning scenario: the pruned partition must expose strictly
     more (hence smaller) groups than the structural one, with bit-identical
     results, and the cone-size histograms must show the shrink *)
  let p_struct = Json.int "pruning_structural_groups" root in
  let p_pruned = Json.int "pruning_pruned_groups" root in
  if p_struct < 1 then failwith "pruning_structural_groups must be >= 1";
  if p_pruned <= p_struct then
    failwith
      (Printf.sprintf
         "pruning: %d pruned groups not more than %d structural groups"
         p_pruned p_struct);
  if not (Json.bool "pruning_bit_identical" root) then
    failwith "pruning: pruned batch state differs from unpruned";
  let p_edits = Json.int "pruning_edits" root in
  let hist_count key =
    let n = Json.int key root in
    if n < p_edits then
      failwith
        (Printf.sprintf "%s is %d: expected one observation per edit (%d)" key
           n p_edits);
    n
  in
  ignore (hist_count "pruning_struct_hist_count");
  ignore (hist_count "pruning_pruned_hist_count");
  if Json.num "pruning_pruned_hist_sum" root
     >= Json.num "pruning_struct_hist_sum" root
  then failwith "pruning: pruned cones are not smaller than structural cones";
  (* the embedded telemetry summary: every expected counter present, and
     the edit / batch paths actually fired during the run *)
  let metric key = Json.int key (Json.member "metrics" root) in
  List.iter (fun name -> ignore (metric name)) metric_names;
  if metric "incr.edits" < 1 then
    failwith "metrics: \"incr.edits\" must be >= 1 (edits recorded)";
  if metric "incr.batches" < 1 then
    failwith "metrics: \"incr.batches\" must be >= 1 (batch path recorded)";
  if metric "dc.solves" < 1 then
    failwith "metrics: \"dc.solves\" must be >= 1 (characterization ran)";
  Printf.printf "%s OK (%d circuits, %d batch rows)\n" path (List.length seen)
    (List.length batches)

let () =
  let out = ref "BENCH_incremental.json" in
  let edits = ref 1000 in
  let batch_edits = ref 64 in
  let max_domains = ref 8 in
  let seed = ref 1 in
  let check_path = ref "" in
  Arg.parse
    [
      ("-o", Arg.Set_string out, "FILE output path (default BENCH_incremental.json)");
      ("-edits", Arg.Set_int edits, "N random resize edits per circuit (default 1000)");
      ("-batch-edits", Arg.Set_int batch_edits,
       "N resize edits per grouped batch (default 64)");
      ("-domains", Arg.Set_int max_domains,
       "N largest batch pool size to measure, of 1/2/4/8 (default 8)");
      ("-seed", Arg.Set_int seed, "N PRNG seed (default 1)");
      ("-check", Arg.Set_string check_path, "FILE validate an existing JSON file and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "incremental re-estimation benchmark";
  if !check_path <> "" then Gate_kit.check_file !check_path (check !check_path)
  else begin
    let host_cores = Domain.recommended_domain_count () in
    (* metrics ride along in the artifact; recording never changes results
       (the bit_identical batch rows double as proof) *)
    Telemetry.set_enabled true;
    let rows = List.map (run_circuit ~edits:!edits ~seed:!seed) circuits in
    let batch_rows =
      run_batches ~batch_edits:!batch_edits ~seed:!seed
        ~max_domains:!max_domains
    in
    let pruning = run_pruning () in
    let oc = open_out !out in
    emit oc ~edits:!edits ~seed:!seed ~batch_edits:!batch_edits ~host_cores
      rows batch_rows pruning;
    close_out oc;
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
          batch_circuit !batch_edits b.b_groups
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
      pruning.p_pruned_hist_sum pruning.p_identical
  end
