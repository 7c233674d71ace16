(* End-to-end tests: the Fig-13 estimator against the full transistor-level
   solver on real benchmark circuits, and circuit-level reproductions of the
   paper's qualitative claims (§6). *)

module Params = Leakage_device.Params
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate
module Report = Leakage_spice.Leakage_report
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Suite = Leakage_benchmarks.Suite
module Rng = Leakage_numeric.Rng
module Tm = Leakage_telemetry.Telemetry

let device = Params.d25
let temp = 300.0
let lib = Library.create ~device ~temp ()

let estimate_and_solve nl pattern =
  let est = Estimator.estimate lib nl pattern in
  let spice, result, _ = Report.analyze ~device ~temp nl pattern in
  Alcotest.(check bool) "solver converged" true
    result.Leakage_spice.Dc_solver.converged;
  (est, spice)

let relative a b = abs_float (a -. b) /. b

let test_estimator_accuracy_per_circuit label tolerance () =
  let nl = (Suite.find label).Suite.build () in
  let rng = Rng.create 2025 in
  List.iter
    (fun pattern ->
      let est, spice = estimate_and_solve nl pattern in
      let err =
        relative
          (Report.total est.Estimator.totals)
          (Report.total spice.Report.totals)
      in
      if err > tolerance then
        Alcotest.failf "%s: estimator off by %.2f%% (> %.1f%%)" label
          (err *. 100.0) (tolerance *. 100.0))
    (Simulate.random_patterns rng nl 3)

let test_estimator_component_accuracy () =
  let nl = (Suite.find "s838").Suite.build () in
  let rng = Rng.create 7 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let est, spice = estimate_and_solve nl pattern in
  let e = est.Estimator.totals and s = spice.Report.totals in
  Alcotest.(check bool) "sub within 2%" true
    (relative e.Report.isub s.Report.isub < 0.02);
  Alcotest.(check bool) "gate within 2%" true
    (relative e.Report.igate s.Report.igate < 0.02);
  Alcotest.(check bool) "btbt within 2%" true
    (relative e.Report.ibtbt s.Report.ibtbt < 0.02)

let test_loading_shift_positive_and_modest () =
  (* §6: loading raises subthreshold, trims gate/BTBT; cancellation keeps the
     net total shift positive but small. *)
  let nl = (Suite.find "s1196").Suite.build () in
  let rng = Rng.create 3 in
  let loaded, base =
    Estimator.average_over_vectors lib nl (Simulate.random_patterns rng nl 5)
  in
  let pct part whole = (part -. whole) /. whole *. 100.0 in
  let sub_shift = pct loaded.Report.isub base.Report.isub in
  let gate_shift = pct loaded.Report.igate base.Report.igate in
  let total_shift = pct (Report.total loaded) (Report.total base) in
  Alcotest.(check bool) "sub shift positive" true (sub_shift > 0.5);
  Alcotest.(check bool) "gate shift negative" true (gate_shift < 0.0);
  Alcotest.(check bool) "total positive but below sub (cancellation)" true
    (total_shift > 0.0 && total_shift < sub_shift)

let test_loading_shift_direction_varies_per_gate () =
  (* §6: in a large circuit some gates gain leakage under loading and some
     lose it, depending on their input vector. *)
  let nl = (Suite.find "s838").Suite.build () in
  let rng = Rng.create 11 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let est = Estimator.estimate lib nl pattern in
  let ups = ref 0 and downs = ref 0 in
  Array.iter
    (fun (g : Estimator.gate_estimate) ->
      let w = Report.total g.Estimator.with_loading in
      let n = Report.total g.Estimator.no_loading in
      if w > n *. 1.0005 then incr ups
      else if w < n *. 0.9995 then incr downs)
    est.Estimator.per_gate;
  Alcotest.(check bool) "some gates increase" true (!ups > 10);
  Alcotest.(check bool) "some gates decrease" true (!downs > 10)

(* The §6 cost ratio as work, which reads the same on every run: the
   transistor-level solve evaluates at least ten devices for every library
   lookup the estimator makes (about 224 on s1423). Both wall-clock times
   are printed, not gated. *)
let test_estimator_faster_than_solver () =
  let nl = (Suite.find "s1423").Suite.build () in
  let rng = Rng.create 1 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  (* warm the characterization cache before counting *)
  ignore (Estimator.estimate lib nl pattern);
  let counted name f =
    let was = Tm.enabled () in
    Tm.set_enabled true;
    Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
    let count () = Tm.Snapshot.counter_total (Tm.Snapshot.take ()) name in
    let before = count () in
    let t0 = Sys.time () in
    f ();
    let seconds = Sys.time () -. t0 in
    (count () - before, seconds)
  in
  let lookups, t_est =
    counted "estimator.gate_lookups" (fun () ->
        ignore (Estimator.estimate lib nl pattern))
  in
  let evals, t_spice =
    counted "dc.device_evals" (fun () ->
        ignore (Report.analyze ~device ~temp nl pattern))
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "solver device evaluations >= 10x estimator lookups (%d vs %d; est \
        %.4fs, spice %.4fs)"
       evals lookups t_est t_spice)
    true
    (lookups > 0 && evals >= 10 * lookups)

let test_bench_file_roundtrip_through_estimator () =
  let nl = (Suite.find "s838").Suite.build () in
  let text = Leakage_circuit.Bench_format.to_string nl in
  let nl' = Leakage_circuit.Bench_format.parse_string ~name:"s838rt" text in
  let rng = Rng.create 4 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  (* logic must be identical; leakage only close, because AOI/OAI cells are
     decomposed into AND/OR + NOR/NAND composites on the way out (a
     different cell binding of the same function) *)
  Alcotest.(check string) "same logic function"
    (Logic.vector_to_string (Simulate.outputs nl (Simulate.run nl pattern)))
    (Logic.vector_to_string (Simulate.outputs nl' (Simulate.run nl' pattern)));
  let a = Estimator.estimate lib nl pattern in
  let b = Estimator.estimate lib nl' pattern in
  Alcotest.(check bool) "estimate within 10% across rebinding" true
    (relative
       (Report.total b.Estimator.totals)
       (Report.total a.Estimator.totals)
     < 0.10)

let test_temperature_consistency_estimator_vs_solver () =
  let hot_temp = 360.0 in
  let hot_lib = Library.create ~device ~temp:hot_temp () in
  let nl = (Suite.find "alu88").Suite.build () in
  let rng = Rng.create 9 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let est = Estimator.estimate hot_lib nl pattern in
  let spice, _, _ = Report.analyze ~device ~temp:hot_temp nl pattern in
  Alcotest.(check bool) "hot estimate within 3%" true
    (relative
       (Report.total est.Estimator.totals)
       (Report.total spice.Report.totals)
     < 0.03)

(* Property: on arbitrary random circuits the one-pass estimator stays
   within 1.5% of the transistor-level solution. This is the strongest
   statement of Fig 12a and exercises every cell kind the generator emits. *)
let prop_estimator_matches_solver_on_random_circuits =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12
       ~name:"estimator within 1.5% of solver on random circuits"
       QCheck2.Gen.(tup2 (int_bound 100_000) (int_range 30 120))
       (fun (seed, n_gates) ->
         let profile =
           { Leakage_benchmarks.Iscas.profile_name = "prop"; n_pi = 6;
             n_po = 4; n_ff = 4; n_gates }
         in
         let nl = Leakage_benchmarks.Iscas.generate ~seed profile in
         let rng = Rng.create seed in
         let pattern = List.hd (Simulate.random_patterns rng nl 1) in
         let est = Estimator.estimate lib nl pattern in
         let spice, result, _ = Report.analyze ~device ~temp nl pattern in
         result.Leakage_spice.Dc_solver.converged
         && relative
              (Report.total est.Estimator.totals)
              (Report.total spice.Report.totals)
            < 0.015))

(* The accuracy envelope: on small random netlists (Diff_harness's
   generator: 4-16 one- and two-input gates, random input vector) the
   estimator's total on a default-grid library stays within a per-corner
   bound of the transistor-level solve. Each bound is the worst error
   measured over these 40 netlists on the 21-point axis, plus 0.01 point,
   rounded up to the next 0.01; the hot corners and all-PI gates carry
   most of it. A model change tightens a bound to what it reaches, never
   widens one. The generator's seeds come from a fixed state, so every
   run checks the same netlists, and each corner prints its worst. *)
let envelope_corners =
  [
    (* label, device, temperature, bound in %; the worst as measured *)
    ("D25/300 K", Params.d25, 300.0, 0.97);  (* 0.953 *)
    ("D50/300 K", Params.d50, 300.0, 0.64);  (* 0.623 *)
    ("D25-S/300 K", Params.d25_s, 300.0, 1.94);  (* 1.926 *)
    ("D25-G/300 K", Params.d25_g, 300.0, 0.62);  (* 0.603 *)
    ("D25-JN/300 K", Params.d25_jn, 300.0, 0.27);  (* 0.255 *)
    ("D25/420 K", Params.d25, 420.0, 2.63);  (* 2.612 *)
    ("D25-S/420 K", Params.d25_s, 420.0, 3.71);  (* 3.699 *)
  ]

let envelope_case (label, device, temp, bound_pct) =
  let lib = Library.create ~device ~temp () in
  let worst = ref 0.0 in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
      (QCheck2.Test.make ~count:40
         ~name:(Printf.sprintf "%s within %.2f%% of solver" label bound_pct)
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Rng.create (seed + 1) in
           let nl = Diff_harness.random_netlist rng in
           let pattern = Diff_harness.random_pattern rng nl in
           let est = Estimator.estimate_totals lib nl pattern |> fst in
           let spice, result, _ = Report.analyze ~device ~temp nl pattern in
           let err =
             100.0
             *. relative (Report.total est) (Report.total spice.Report.totals)
           in
           worst := Float.max !worst err;
           result.Leakage_spice.Dc_solver.converged && err <= bound_pct))
  in
  ( name,
    speed,
    fun () ->
      run ();
      Printf.printf "%s: worst %.3f%% over 40 netlists (bound %.2f%%)\n" label
        !worst bound_pct )

(* Property: the .bench parser never raises anything but Parse_error on
   arbitrary junk, and accepts what it printed. *)
let prop_parser_total_on_junk =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"bench parser is total on junk"
       QCheck2.Gen.(string_size ~gen:printable (int_bound 200))
       (fun text ->
         match
           Leakage_circuit.Bench_format.parse_string ~name:"fuzz" text
         with
         | _ -> true
         | exception Leakage_circuit.Bench_format.Parse_error _ -> true
         | exception _ -> false))

let test_vector_dependence_of_totals () =
  (* §6: the applied input pattern changes circuit leakage materially *)
  let nl = (Suite.find "mult88").Suite.build () in
  let rng = Rng.create 6 in
  let totals =
    List.map
      (fun p -> Report.total (Estimator.estimate lib nl p).Estimator.totals)
      (Simulate.random_patterns rng nl 8)
  in
  let lo = List.fold_left Float.min infinity totals in
  let hi = List.fold_left Float.max neg_infinity totals in
  Alcotest.(check bool) "spread > 5%" true ((hi -. lo) /. lo > 0.05)

let () =
  Alcotest.run "integration"
    [
      ( "estimator-vs-solver",
        [
          Alcotest.test_case "s838" `Slow (test_estimator_accuracy_per_circuit "s838" 0.01);
          Alcotest.test_case "s1196" `Slow (test_estimator_accuracy_per_circuit "s1196" 0.01);
          Alcotest.test_case "alu88" `Slow (test_estimator_accuracy_per_circuit "alu88" 0.02);
          Alcotest.test_case "mult88" `Slow (test_estimator_accuracy_per_circuit "mult88" 0.01);
          Alcotest.test_case "components" `Slow test_estimator_component_accuracy;
          Alcotest.test_case "hot library" `Slow test_temperature_consistency_estimator_vs_solver;
        ] );
      ( "paper-claims",
        [
          Alcotest.test_case "net shift sign" `Slow test_loading_shift_positive_and_modest;
          Alcotest.test_case "per-gate direction" `Slow test_loading_shift_direction_varies_per_gate;
          Alcotest.test_case "speedup" `Slow test_estimator_faster_than_solver;
          Alcotest.test_case "vector dependence" `Slow test_vector_dependence_of_totals;
        ] );
      ( "interchange",
        [
          Alcotest.test_case "bench roundtrip" `Slow test_bench_file_roundtrip_through_estimator;
          prop_parser_total_on_junk;
        ] );
      ( "properties",
        [ prop_estimator_matches_solver_on_random_circuits ] );
      ("envelope", List.map envelope_case envelope_corners);
    ]
