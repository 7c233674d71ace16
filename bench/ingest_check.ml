(* Ingestion conformance check (the @ingest-check alias).

   Two gates, in order:

     1. Memory budget: a 1M-gate inverter chain is generated as a .bench
        file on disk and parsed through the streaming reader. The words
        the parse allocates per declaration must stay under a fixed
        budget, and so must the process peak RSS (VmHWM) after it — a
        whole-file reader, a per-line string list or a per-gate heap
        object regression each blow the budgets, the RSS one by hundreds
        of MB at this size. Runs first so the corpus work below cannot
        inflate the high-water mark.

     2. Round-trip bit-identity on the golden corpus: every suite circuit
        is emitted to .bench text, re-parsed through the streaming reader,
        snapshotted to an LKN1 file and mmap-loaded back. The parsed and
        the mapped netlists must agree on the structural digest (which the
        snapshot header also carries) and produce bit-identical
        loading-aware estimates.

   Prints "ok: ..." per passing check; any violation fails the gate with
   an "ingest_check: FAIL ..." line and exit 1. *)

module Params = Leakage_device.Params
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Bench_format = Leakage_circuit.Bench_format
module Snapshot = Leakage_circuit.Snapshot
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Report = Leakage_spice.Leakage_report
module Suite = Leakage_benchmarks.Suite
module Rng = Leakage_numeric.Rng

let check cond fmt = Gate_kit.check "ingest_check" cond fmt

(* ------------------------------------------------------ peak-RSS reading *)

(* VmHWM from /proc/self/status, in bytes; None off Linux (the budget gate
   then degrades to a parse-correctness check rather than failing). *)
let peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d kB" (fun kb -> Some (kb * 1024))
            else scan ()
        in
        scan ())

(* --------------------------------------------------- 1M-gate chain parse *)

let chain_gates = 1_000_000

(* The budget bounds the parser's working set plus the struct-of-arrays
   netlist itself (~40 MB of flat arrays at this size, plus interning
   tables and the OCaml heap). The historical whole-file reader held the
   complete text, a line list and a per-gate record graph at once — well
   over this line. *)
let rss_budget_bytes = 768 * 1024 * 1024

(* Words the OCaml heap allocates per declaration while that chain parses
   (minor + major - promoted, so a promoted word counts once): a count, not
   a time, so it reads the same on every run of one build. The reader
   measures 25.2 on this chain; the bound leaves 24%. *)
let alloc_budget_words_per_decl = 31.2

let write_chain_bench path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "INPUT(i0)\n";
      Printf.fprintf oc "OUTPUT(g%d)\n" chain_gates;
      for g = 1 to chain_gates do
        Printf.fprintf oc "g%d = NOT(%s)\n" g
          (if g = 1 then "i0" else Printf.sprintf "g%d" (g - 1))
      done)

let memory_gate () =
  Printf.printf "ingest-check: streaming parse of a %d-gate chain\n%!"
    chain_gates;
  let path = Filename.temp_file "ingest_chain" ".bench" in
  let t, words =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        write_chain_bench path;
        let s0 = Gc.quick_stat () in
        let t = Bench_format.parse_file path in
        let s1 = Gc.quick_stat () in
        ( t,
          s1.Gc.minor_words -. s0.Gc.minor_words
          +. (s1.Gc.major_words -. s0.Gc.major_words)
          -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) ))
  in
  check (Netlist.gate_count t = chain_gates) "chain gate count";
  (* INPUT, OUTPUT and one line per gate *)
  let per_decl = words /. float_of_int (chain_gates + 2) in
  Printf.printf "  allocated %.1f words per declaration (budget %.1f)\n%!"
    per_decl alloc_budget_words_per_decl;
  check
    (per_decl <= alloc_budget_words_per_decl)
    "allocation per declaration within budget";
  check
    (Array.length (Netlist.inputs t) = 1
    && Array.length (Netlist.outputs t) = 1)
    "chain interface (iterative elaboration survived the depth)";
  match peak_rss_bytes () with
  | None -> Printf.printf "  skip: no /proc/self/status (not Linux)\n%!"
  | Some rss ->
    Printf.printf "  peak RSS %.1f MB (budget %d MB)\n%!"
      (float_of_int rss /. 1048576.0)
      (rss_budget_bytes / 1048576);
    check (rss <= rss_budget_bytes) "peak RSS within budget"

(* ------------------------------------------- golden-corpus round tripping *)

let coarse_grid = { Characterize.max_current = 3.0e-6; points = 5 }

let roundtrip_gate () =
  Printf.printf
    "ingest-check: parse -> snapshot -> mmap-load round trip on the corpus\n%!";
  let lib = Library.create ~grid:coarse_grid ~device:Params.d25 ~temp:300.0 () in
  let rng = Rng.create 7 in
  List.iter
    (fun (e : Suite.entry) ->
      let original = e.Suite.build () in
      let bench = Filename.temp_file "ingest_corpus" ".bench" in
      let snap = Filename.temp_file "ingest_corpus" ".lkn" in
      (* every result is taken before the files go, so a failed check
         cannot leave them behind *)
      let header_ok, mapped_ok, identical, finite =
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ bench; snap ])
          (fun () ->
            Bench_format.write_file bench original;
            let parsed = Bench_format.parse_file bench in
            Snapshot.save snap parsed;
            let header_ok =
              Snapshot.digest_of_file snap = Netlist.digest parsed
            in
            let mapped = Snapshot.load snap in
            let n_pi = Array.length (Netlist.inputs parsed) in
            let pattern =
              Array.init n_pi (fun _ ->
                  if Rng.int rng 2 = 0 then Logic.Zero else Logic.One)
            in
            let totals_p, base_p = Estimator.estimate_totals lib parsed pattern in
            let totals_m, base_m = Estimator.estimate_totals lib mapped pattern in
            ( header_ok,
              Netlist.digest mapped = Netlist.digest parsed,
              totals_p = totals_m && base_p = base_m,
              Float.is_finite (Report.total totals_p) ))
      in
      let label = e.Suite.label in
      check header_ok "%s: header digest matches parsed netlist" label;
      check mapped_ok "%s: mapped digest" label;
      check identical "%s: bit-identical estimate through the mapping" label;
      check finite "%s: estimate is finite" label)
    Suite.all

let () =
  memory_gate ();
  roundtrip_gate ();
  Printf.printf "ingest-check: all checks passed\n%!"
