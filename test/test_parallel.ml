(* Tests of the Domain worker pool and the bit-identical parallel/sequential
   contract of the estimation hot paths.

   Pools are created once at module level and reused across cases (spawning
   domains per qcheck case would dominate runtime); worker-domain
   characterization caches warm up across cases exactly as they would in a
   long-lived process. *)

module Params = Leakage_device.Params
module Variation = Leakage_device.Variation
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Monte_carlo = Leakage_core.Monte_carlo
module Vector_mc = Leakage_incremental.Vector_mc
module Suite = Leakage_benchmarks.Suite
module Rng = Leakage_numeric.Rng
module Pool = Leakage_parallel.Pool

let device = Params.d25
let temp = 300.0
let coarse_grid = { Characterize.max_current = 3.0e-6; points = 5 }
let lib = Library.create ~grid:coarse_grid ~device ~temp ()

let pool1 = Pool.create ~jobs:1 ()
let pool2 = Pool.create ~jobs:2 ()
let pool3 = Pool.create ~jobs:3 ()
let pools = [ None; Some pool1; Some pool2; Some pool3 ]

let () =
  at_exit (fun () ->
      List.iter (function Some p -> Pool.shutdown p | None -> ()) pools)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------ pool unit *)

let test_map_matches_sequential () =
  let expected = Array.init 100 (fun i -> i * i) in
  List.iter
    (fun pool ->
      Alcotest.(check bool) "map slots in index order" true
        (Pool.map ?pool 100 (fun i -> i * i) = expected))
    pools

let test_run_executes_each_once () =
  let hits = Array.make 257 0 in
  let mutex = Mutex.create () in
  Pool.run ~pool:pool3 257 (fun i ->
      Mutex.lock mutex;
      hits.(i) <- hits.(i) + 1;
      Mutex.unlock mutex);
  Alcotest.(check bool) "every item exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_map_empty () =
  Alcotest.(check int) "n = 0" 0
    (Array.length (Pool.map ~pool:pool2 0 (fun i -> i)))

let test_map_chunked_boundaries () =
  (* boundaries are k * chunk regardless of the pool *)
  List.iter
    (fun pool ->
      let chunks = Pool.map_chunked ?pool ~chunk:4 10 (fun ~lo ~hi -> (lo, hi)) in
      Alcotest.(check bool) "3 chunks at fixed offsets" true
        (chunks = [| (0, 4); (4, 8); (8, 10) |]))
    pools

let test_map_chunked_rejects_bad_chunk () =
  Alcotest.check_raises "chunk 0"
    (Invalid_argument "Pool.map_chunked: chunk must be >= 1")
    (fun () -> ignore (Pool.map_chunked ~chunk:0 4 (fun ~lo:_ ~hi:_ -> ())))

let test_create_rejects_bad_jobs () =
  Alcotest.check_raises "jobs 0"
    (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0 ()))

let test_jobs_reported () =
  Alcotest.(check int) "pool3 lanes" 3 (Pool.jobs pool3);
  Alcotest.(check int) "pool1 lanes" 1 (Pool.jobs pool1)

let test_lowest_index_exception_wins () =
  (* items keep draining after a failure; the lowest index is re-raised *)
  List.iter
    (fun pool ->
      match
        Pool.run ?pool 16 (fun i ->
            if i = 3 || i = 11 then failwith (string_of_int i))
      with
      | () -> Alcotest.fail "expected an exception"
      | exception Failure m -> Alcotest.(check string) "lowest index" "3" m)
    pools

let test_nested_run_is_inline () =
  (* a region submitted while the pool is busy must run inline, not deadlock *)
  let total = Atomic.make 0 in
  Pool.run ~pool:pool2 4 (fun _ ->
      Pool.run ~pool:pool2 4 (fun _ -> Atomic.incr total));
  Alcotest.(check int) "all nested items ran" 16 (Atomic.get total)

let test_with_pool_returns () =
  Alcotest.(check int) "value through" 42
    (Pool.with_pool ~jobs:2 (fun pool ->
         Array.length (Pool.map ~pool 43 Fun.id) - 1))

let test_default_jobs_positive () =
  Alcotest.(check bool) "default jobs >= 1" true (Pool.default_jobs () >= 1)

let test_shutdown_idempotent_and_inline () =
  let p = Pool.create ~jobs:3 () in
  Pool.shutdown p;
  (* shutdown again: must be a no-op, not a raise or a hang *)
  Pool.shutdown p;
  (* a shut-down pool still runs regions — inline, raise-free *)
  let expected = Array.init 33 (fun i -> i * 7) in
  Alcotest.(check bool) "map on shut-down pool" true
    (Pool.map ~pool:p 33 (fun i -> i * 7) = expected);
  let hits = ref 0 in
  Pool.run ~pool:p 5 (fun _ -> incr hits);
  Alcotest.(check int) "run on shut-down pool" 5 !hits;
  (* exceptions still follow the lowest-index contract inline *)
  (match Pool.run ~pool:p 4 (fun i -> failwith (string_of_int i)) with
   | () -> Alcotest.fail "expected an exception"
   | exception Failure m -> Alcotest.(check string) "lowest index" "0" m);
  Pool.shutdown p

let test_parse_jobs () =
  let cases =
    [ ("8", Some 8); (" 16 ", Some 16); ("1", Some 1); ("128", Some 128);
      ("500", Some 500) (* clamping is default_jobs' business, not parsing *);
      ("0", None); ("-3", None); ("", None); ("  ", None);
      ("garbage", None); ("3.5", None); ("8x", None) ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check (option int))
        (Printf.sprintf "parse_jobs %S" input)
        expected (Pool.parse_jobs input))
    cases

let test_clamp_jobs () =
  Alcotest.(check int) "0 -> 1" 1 (Pool.clamp_jobs 0);
  Alcotest.(check int) "-5 -> 1" 1 (Pool.clamp_jobs (-5));
  Alcotest.(check int) "8 unchanged" 8 (Pool.clamp_jobs 8);
  Alcotest.(check int) "128 unchanged" 128 (Pool.clamp_jobs 128);
  Alcotest.(check int) "500 -> 128" 128 (Pool.clamp_jobs 500)

let test_default_jobs_reads_env () =
  (* Unix.putenv mutates this process's real environment; always restore the
     previous value, also when a check fails. *)
  let saved = Sys.getenv_opt "LEAKCTL_JOBS" in
  let restore () =
    Unix.putenv "LEAKCTL_JOBS" (Option.value saved ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "LEAKCTL_JOBS" "7";
      Alcotest.(check int) "LEAKCTL_JOBS=7" 7 (Pool.default_jobs ());
      Unix.putenv "LEAKCTL_JOBS" "500";
      Alcotest.(check int) "LEAKCTL_JOBS=500 clamps to 128" 128
        (Pool.default_jobs ());
      Unix.putenv "LEAKCTL_JOBS" "0";
      Alcotest.(check bool) "LEAKCTL_JOBS=0 falls back" true
        (Pool.default_jobs () >= 1);
      Unix.putenv "LEAKCTL_JOBS" "-2";
      Alcotest.(check bool) "LEAKCTL_JOBS=-2 falls back" true
        (Pool.default_jobs () >= 1);
      Unix.putenv "LEAKCTL_JOBS" "nonsense";
      Alcotest.(check bool) "garbage falls back" true
        (Pool.default_jobs () >= 1))

(* -------------------------------------------------- random test circuits *)

let random_netlist rng =
  let b = Netlist.Builder.create "rand" in
  let n_inputs = 2 + Rng.int rng 3 in
  let inputs = Array.init n_inputs (fun _ -> Netlist.Builder.input b) in
  let nets = ref (Array.to_list inputs) in
  let used = Hashtbl.create 32 in
  let pick () = List.nth !nets (Rng.int rng (List.length !nets)) in
  let add_gate kind =
    let ins = Array.init (Gate.arity kind) (fun _ -> pick ()) in
    Array.iter (fun n -> Hashtbl.replace used n ()) ins;
    let out = Netlist.Builder.gate b kind ins in
    nets := out :: !nets
  in
  let n_gates = 4 + Rng.int rng 12 in
  for _ = 1 to n_gates do
    add_gate
      (match Rng.int rng 6 with
       | 0 -> Gate.Inv
       | 1 -> Gate.Buf
       | 2 -> Gate.Nand 2
       | 3 -> Gate.Nor 2
       | 4 -> Gate.And 2
       | _ -> Gate.Or 2)
  done;
  (* consume untouched inputs and expose every sink as a primary output so
     validation sees a closed circuit *)
  Array.iter
    (fun n -> if not (Hashtbl.mem used n) then begin
        Hashtbl.replace used n ();
        let out = Netlist.Builder.gate b Gate.Inv [| n |] in
        nets := out :: !nets
      end)
    inputs;
  List.iter
    (fun n ->
      if not (Hashtbl.mem used n) && not (Array.mem n inputs) then
        Netlist.Builder.mark_output b n)
    !nets;
  Netlist.Builder.finish b

(* --------------------------------------------------- determinism: paths *)

let prop_average_over_vectors_bit_identical =
  qtest ~count:12 "average_over_vectors bit-identical at any pool size"
    QCheck2.Gen.(tup2 (int_bound 100_000) (int_bound 100_000))
    (fun (cseed, vseed) ->
      let rng = Rng.create (cseed + 1) in
      let nl = random_netlist rng in
      let width = Array.length (Netlist.inputs nl) in
      let vrng = Rng.create (vseed + 1) in
      (* 1..40 vectors: exercises partial, single and multi chunk counts *)
      let vs =
        List.init (1 + Rng.int vrng 40) (fun _ -> Logic.random_vector vrng width)
      in
      let seq = Estimator.average_over_vectors lib nl vs in
      List.for_all
        (fun pool -> Estimator.average_over_vectors ?pool lib nl vs = seq)
        pools)

let prop_monte_carlo_bit_identical =
  qtest ~count:4 "Monte_carlo.run bit-identical at any pool size"
    QCheck2.Gen.(tup2 (int_bound 100_000) (int_range 1 5))
    (fun (seed, n_samples) ->
      let config =
        { Monte_carlo.paper_config with
          Monte_carlo.n_samples; seed; n_load_in = 2; n_load_out = 1 }
      in
      let run pool =
        Monte_carlo.run ?pool ~config ~device ~temp
          ~sigmas:Variation.paper_sigmas ()
      in
      let seq = run None in
      List.for_all (fun pool -> run pool = seq) pools)

(* Every resampled vector is a fresh estimate: sample [i]'s totals are
   exactly those of [estimate_totals] on the [i]-th vector drawn from
   [Rng.create seed], and every pooled run reproduces the sequential
   result field for field. Sample counts include the ones that straddle
   the 32-wide chunk edges. *)
let prop_vector_mc_bit_identical =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  qtest ~count:10
    "Vector_mc.resample bit-identical at any pool size and to fresh estimates"
    QCheck2.Gen.(
      tup2 (int_bound 100_000) (oneof [ oneofl [ 1; 32; 33; 70 ]; int_range 1 70 ]))
    (fun (seed, samples) ->
      let rng = Rng.create (seed + 1) in
      let nl = random_netlist rng in
      let run pool = Vector_mc.resample ?pool ~seed:(seed + 2) ~samples lib nl in
      let seq = run None in
      let draws = Rng.create (seed + 2) in
      let width = Array.length (Netlist.inputs nl) in
      let fresh_ok i =
        let loaded, base =
          Estimator.estimate_totals lib nl (Logic.random_vector draws width)
        in
        same seq.Vector_mc.totals.(i) (Report.total loaded)
        && same seq.Vector_mc.baselines.(i) (Report.total base)
      in
      List.for_all fresh_ok (List.init samples Fun.id)
      && List.for_all
           (fun pool ->
             let r = run pool in
             r.Vector_mc.totals = seq.Vector_mc.totals
             && r.Vector_mc.baselines = seq.Vector_mc.baselines
             && r.Vector_mc.summary = seq.Vector_mc.summary
             && r.Vector_mc.mean_components = seq.Vector_mc.mean_components
             && r.Vector_mc.mean_shift_percent = seq.Vector_mc.mean_shift_percent)
           pools)

let test_suite_estimate_all_deterministic () =
  let entries = [ Suite.find "alu88" ] in
  let seq = Suite.estimate_all ~entries ~vectors:4 lib in
  List.iter
    (fun pool ->
      let r = Suite.estimate_all ?pool ~entries ~vectors:4 lib in
      Alcotest.(check bool) "suite runs bit-identical" true (r = seq))
    pools;
  Alcotest.(check int) "one run per entry" 1 (Array.length seq);
  Alcotest.(check bool) "positive totals" true
    (Report.total seq.(0).Suite.loaded > 0.0)

let test_precharacterize_pool_adopts_entries () =
  let fresh = Library.create ~grid:coarse_grid ~device ~temp () in
  Library.precharacterize ~pool:pool2 ~kinds:[ Gate.Inv; Gate.Nand 2 ] fresh;
  (* 2 INV vectors + 4 NAND2 vectors land in the calling domain's cache *)
  Alcotest.(check int) "entries adopted" 6 (Library.entry_count fresh);
  (* adopted entries must be the same values a direct lookup returns *)
  let e = Library.entry fresh Gate.Inv [| Logic.Zero |] in
  Alcotest.(check bool) "usable entry" true
    (Report.total e.Characterize.nominal_isolated > 0.0)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "run covers all items" `Quick test_run_executes_each_once;
          Alcotest.test_case "map empty" `Quick test_map_empty;
          Alcotest.test_case "chunk boundaries fixed" `Quick test_map_chunked_boundaries;
          Alcotest.test_case "chunk rejects 0" `Quick test_map_chunked_rejects_bad_chunk;
          Alcotest.test_case "create rejects 0 jobs" `Quick test_create_rejects_bad_jobs;
          Alcotest.test_case "jobs reported" `Quick test_jobs_reported;
          Alcotest.test_case "lowest-index exception" `Quick test_lowest_index_exception_wins;
          Alcotest.test_case "nested run inline" `Quick test_nested_run_is_inline;
          Alcotest.test_case "with_pool" `Quick test_with_pool_returns;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
          Alcotest.test_case "shutdown idempotent, runs inline" `Quick
            test_shutdown_idempotent_and_inline;
          Alcotest.test_case "parse_jobs" `Quick test_parse_jobs;
          Alcotest.test_case "clamp_jobs" `Quick test_clamp_jobs;
          Alcotest.test_case "LEAKCTL_JOBS env" `Quick test_default_jobs_reads_env;
        ] );
      ( "determinism",
        [
          prop_average_over_vectors_bit_identical;
          prop_monte_carlo_bit_identical;
          prop_vector_mc_bit_identical;
          Alcotest.test_case "suite fan-out" `Quick test_suite_estimate_all_deterministic;
          Alcotest.test_case "precharacterize pool" `Quick test_precharacterize_pool_adopts_entries;
        ] );
    ]
