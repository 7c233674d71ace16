(* Telemetry conformance check (the @trace-check alias).

   Runs a small estimation + incremental-batch workload on s838 twice — once
   with telemetry and tracing off, once with both on — and enforces the two
   halves of the observability contract:

     1. The emitted trace is well-formed Chrome trace-event JSON (read
        with the strict Json parser — not substring matching): a
        "traceEvents" array of complete/instant/metadata events, a
        thread_name metadata record per track, and at least one track per
        pool domain.
     2. Telemetry never perturbs results: every float the workload produces
        is bit-identical between the two runs.

   Prints "ok: ..." per passing check; any violation fails the gate with
   a "trace_check: FAIL ..." line and exit 1. *)

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
module Pool = Leakage_parallel.Pool
module Telemetry = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace
module Json = Leakage_telemetry.Json

let jobs = 2
let n_vectors = 48 (* 3 chunks of Estimator.avg_chunk: real fan-out on 2 lanes *)
let n_batch = 32

(* ------------------------------------------------------------- workload *)

(* Everything observable the workload computes; compared with polymorphic
   equality, which on floats inside is exact bit comparison (modulo NaN,
   which the estimator never produces). *)
type fingerprint = {
  fp_loaded : Report.components;
  fp_base : Report.components;
  fp_totals : Report.components;
  fp_baseline : Report.components;
  fp_injection : float array;
}

let workload () =
  let nl = (Suite.find "s838").Suite.build () in
  let lib = Library.create ~device:Params.d25 ~temp:300.0 () in
  let rng = Rng.create 1 in
  let patterns = Simulate.random_patterns rng nl n_vectors in
  let pattern = List.hd patterns in
  let edits = List.init n_batch (fun _ -> Edit.random_resize rng nl) in
  Pool.with_pool ~jobs (fun pool ->
      let loaded, base =
        Estimator.average_over_vectors ~pool lib nl patterns
      in
      let session = Incremental.create lib nl pattern in
      Incremental.apply_batch session edits;
      {
        fp_loaded = loaded;
        fp_base = base;
        fp_totals = Incremental.totals session;
        fp_baseline = Incremental.baseline_totals session;
        fp_injection = Incremental.net_injection session;
      })

(* ------------------------------------------------------ trace validation *)

let fail fmt = Gate_kit.fail "trace_check" fmt
let check cond fmt = Gate_kit.check "trace_check" cond fmt

(* every shape problem surfaces as a Json.Error naming the key or type *)
let validate_trace root =
  let events = Json.arr "traceEvents" root in
  ignore (Json.str "displayTimeUnit" root);
  let tracks = Hashtbl.create 8 in
  let named = Hashtbl.create 8 in
  let spans = ref 0 in
  List.iter
    (fun ev ->
      let name = Json.str "name" ev in
      let tid = Json.int "tid" ev in
      ignore (Json.num "pid" ev);
      match Json.str "ph" ev with
      | "X" ->
        let dur = Json.num "dur" ev in
        ignore (Json.num "ts" ev);
        if dur < 0.0 then fail "span %S has negative duration" name;
        incr spans;
        Hashtbl.replace tracks tid ()
      | "i" -> Hashtbl.replace tracks tid ()
      | "M" ->
        if name <> "thread_name" then fail "unknown metadata event %S" name;
        Hashtbl.replace named tid ()
      | _ -> fail "event %S has a bad \"ph\"" name)
    events;
  check (!spans > 0) "%d complete (\"ph\":\"X\") spans recorded" !spans;
  Hashtbl.iter
    (fun tid () ->
      if not (Hashtbl.mem named tid) then
        fail "track %d has no thread_name metadata" tid)
    tracks;
  (* main domain + at least one worker: the pool fan-out must be visible *)
  check
    (Hashtbl.length tracks >= 2)
    "%d tracks, at least one per pool domain" (Hashtbl.length tracks);
  (!spans, Hashtbl.length tracks)

let () =
  let quiet = workload () in
  Telemetry.set_enabled true;
  Trace.start ();
  let observed = workload () in
  Trace.stop ();
  check
    (Stdlib.compare quiet observed = 0)
    "telemetry left the results bit-identical (traced vs untraced run)";
  let spans, tracks =
    match validate_trace (Json.parse (Trace.to_json ())) with
    | r -> r
    | exception Json.Error m -> fail "malformed trace: %s" m
  in
  Gate_kit.counters_fired "trace_check"
    [ "pool.regions"; "pool.items"; "library.misses"; "dc.solves";
      "estimator.estimates"; "incr.edits"; "incr.batches" ];
  Printf.printf
    "trace-check OK: %d spans on %d tracks, bit-identical with tracing off\n"
    spans tracks
