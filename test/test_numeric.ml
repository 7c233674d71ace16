(* Unit and property tests for the numeric substrate. *)

module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats
module Interp = Leakage_numeric.Interp
module Linalg = Leakage_numeric.Linalg
module Solver = Leakage_numeric.Solver
module Telemetry = Leakage_telemetry.Telemetry

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Rng.bits64 a = Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_diverges () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = Array.init 32 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 32 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_rng_uniform_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let u = Rng.uniform r in
    if u < 0.0 || u >= 1.0 then Alcotest.fail "uniform outside [0,1)"
  done

let test_rng_int_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int outside bounds"
  done

let test_rng_int_large_bound () =
  (* regression: 63-bit truncation used to produce negative values *)
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int r max_int in
    if v < 0 then Alcotest.fail "negative draw"
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 6 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_gaussian_moments () =
  let r = Rng.create 12 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r) in
  Alcotest.(check (float 0.03)) "mean ~ 0" 0.0 (Stats.mean xs);
  Alcotest.(check (float 0.03)) "std ~ 1" 1.0 (Stats.std xs)

let test_rng_normal_scaling () =
  let r = Rng.create 13 in
  let xs = Array.init 50_000 (fun _ -> Rng.normal r ~mean:5.0 ~sigma:2.0) in
  Alcotest.(check (float 0.06)) "mean" 5.0 (Stats.mean xs);
  Alcotest.(check (float 0.06)) "sigma" 2.0 (Stats.std xs)

let test_rng_pick () =
  let r = Rng.create 15 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    let v = Rng.pick r a in
    if v < 1 || v > 3 then Alcotest.fail "pick outside array"
  done

(* ---------------------------------------------------------------- Stats *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_variance () =
  check_float "variance of 1..5" 2.5 (Stats.variance [| 1.; 2.; 3.; 4.; 5. |])

let test_stats_variance_singleton () =
  check_float "singleton variance" 0.0 (Stats.variance [| 42.0 |])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7.; 2. |] in
  check_float "min" (-1.) lo;
  check_float "max" 7. hi

let test_stats_percentile_endpoints () =
  let a = [| 10.; 20.; 30.; 40. |] in
  check_float "p0" 10. (Stats.percentile a 0.);
  check_float "p100" 40. (Stats.percentile a 100.);
  check_float "p50" 25. (Stats.percentile a 50.)

let test_stats_percentile_unsorted_input () =
  let a = [| 40.; 10.; 30.; 20. |] in
  check_float "median of unsorted" 25. (Stats.median a);
  Alcotest.(check bool) "input untouched" true (a = [| 40.; 10.; 30.; 20. |])

let test_stats_summary () =
  let s = Stats.summarize (Array.init 101 float_of_int) in
  Alcotest.(check int) "n" 101 s.Stats.n;
  check_float "mean" 50.0 s.Stats.mean;
  check_float "median" 50.0 s.Stats.p50;
  check_float "p05" 5.0 s.Stats.p05

let test_stats_histogram_counts () =
  let h = Stats.histogram ~bins:4 [| 0.; 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "total count" 5 (Array.fold_left ( + ) 0 h.Stats.counts);
  Alcotest.(check int) "bins" 4 (Array.length h.Stats.counts);
  Alcotest.(check int) "last bin holds top value" 2 h.Stats.counts.(3)

let test_stats_histogram_in_clamps () =
  let h =
    Stats.histogram_in ~lo:0.0 ~hi:1.0 ~bins:2 [| -5.0; 0.25; 0.75; 9.0 |]
  in
  Alcotest.(check int) "low clamp" 2 h.Stats.counts.(0);
  Alcotest.(check int) "high clamp" 2 h.Stats.counts.(1)

let test_stats_histogram_degenerate () =
  let h = Stats.histogram ~bins:3 [| 2.0; 2.0; 2.0 |] in
  Alcotest.(check int) "all in one bin" 3 h.Stats.counts.(0)

let test_stats_bin_centers () =
  let h = Stats.histogram_in ~lo:0.0 ~hi:4.0 ~bins:4 [| 1.0 |] in
  let c = Stats.bin_centers h in
  check_float "first center" 0.5 c.(0);
  check_float "last center" 3.5 c.(3)

(* --------------------------------------------------------------- Interp *)

let test_interp_linspace () =
  let xs = Interp.linspace 0.0 1.0 5 in
  Alcotest.(check int) "count" 5 (Array.length xs);
  check_float "first" 0.0 xs.(0);
  check_float "last" 1.0 xs.(4);
  check_float "step" 0.25 xs.(1)

let test_interp_1d_exact_on_nodes () =
  let g = Interp.grid1d ~xs:[| 0.; 1.; 3. |] ~ys:[| 5.; 7.; 1. |] in
  check_float "node 0" 5. (Interp.eval1d g 0.);
  check_float "node 1" 7. (Interp.eval1d g 1.);
  check_float "node 2" 1. (Interp.eval1d g 3.)

let test_interp_1d_linear_between () =
  let g = Interp.grid1d ~xs:[| 0.; 2. |] ~ys:[| 0.; 4. |] in
  check_float "midpoint" 2. (Interp.eval1d g 1.);
  check_float "quarter" 1. (Interp.eval1d g 0.5)

let test_interp_1d_clamps () =
  let g = Interp.grid1d ~xs:[| 0.; 1. |] ~ys:[| 3.; 9. |] in
  check_float "below" 3. (Interp.eval1d g (-5.));
  check_float "above" 9. (Interp.eval1d g 100.)

let test_interp_1d_rejects_bad_axis () =
  Alcotest.check_raises "non increasing"
    (Invalid_argument "Interp.grid1d: axis must be strictly increasing")
    (fun () -> ignore (Interp.grid1d ~xs:[| 0.; 0. |] ~ys:[| 1.; 2. |]))

let test_interp_1d_rejects_nan () =
  (* regression: NaN fell through every segment comparison and produced
     garbage instead of an error *)
  let g = Interp.grid1d ~xs:[| 0.; 1. |] ~ys:[| 3.; 9. |] in
  Alcotest.check_raises "nan x"
    (Invalid_argument "Interp.eval1d: NaN coordinate")
    (fun () -> ignore (Interp.eval1d g Float.nan))

let prop_interp_reproduces_linear =
  qtest "interp1d is exact for affine functions"
    QCheck2.Gen.(tup2 (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (a, b) ->
      let f x = (a *. x) +. b in
      let xs = Interp.linspace (-2.0) 2.0 9 in
      let g = Interp.grid1d ~xs ~ys:(Array.map f xs) in
      List.for_all
        (fun x -> abs_float (Interp.eval1d g x -. f x) < 1e-9)
        [ -1.9; -0.3; 0.0; 0.7; 1.99 ])

(* --------------------------------------------------------------- Linalg *)

(* [a x = b] through the in-place LU, [a] given as rows. *)
let lu_solve rows b =
  let n = Array.length rows in
  let x = Array.make n 0.0 in
  Linalg.lu_solve_in_place ~n (Array.concat (Array.to_list rows))
    (Array.make n 0) b x;
  x

let test_linalg_identity_solve () =
  let id = [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |] in
  let x = lu_solve id [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "identity" true (x = [| 1.; 2.; 3. |])

let test_linalg_known_system () =
  (* [[2,1],[1,3]] x = [3,5] -> x = [4/5, 7/5] *)
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = lu_solve a [| 3.; 5. |] in
  check_float ~eps:1e-12 "x0" 0.8 x.(0);
  check_float ~eps:1e-12 "x1" 1.4 x.(1)

let test_linalg_pivoting () =
  let a = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = lu_solve a [| 2.; 3. |] in
  check_float "x0" 3. x.(0);
  check_float "x1" 2. x.(1)

let test_linalg_singular () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Linalg.Singular (fun () ->
      ignore (lu_solve a [| 1.; 1. |]))

let test_linalg_mat_vec () =
  let y = Linalg.mat_vec ~n:2 [| 1.; 2.; 3.; 4. |] [| 1.; 1. |] in
  Alcotest.(check bool) "product" true (y = [| 3.; 7. |])

let test_linalg_norms () =
  check_float "inf" 3.0 (Linalg.norm_inf [| 1.; -3.; 2. |])

(* The right-hand side is only read, and one set of scratch arrays, larger
   than the system, serves one solve after another with the bits of fresh
   arrays. *)
let test_linalg_scratch_reuse () =
  let a = [| 0.; 2.; 1.; 1.; 3.; 0.; 4.; 1.; 5. |] in
  let b = [| 3.; 5.; 1. |] in
  let fresh () =
    let x = Array.make 3 0.0 in
    Linalg.lu_solve_in_place ~n:3 (Array.copy a) (Array.make 3 0) b x;
    x
  in
  let expected = fresh () in
  Alcotest.(check bool) "b intact" true (b = [| 3.; 5.; 1. |]);
  let m = Array.make 16 nan and perm = Array.make 4 7 and x = Array.make 4 nan in
  for _ = 1 to 3 do
    Array.blit a 0 m 0 9;
    Linalg.lu_solve_in_place ~n:3 m perm b x;
    Alcotest.(check bool) "same bits" true
      (Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u)
                          (Int64.bits_of_float v))
         (Array.sub x 0 3) expected)
  done

let prop_lu_solves_random_dd =
  qtest ~count:100 "LU solves diagonally dominant random systems"
    QCheck2.Gen.(array_size (return 9) (float_range (-1.0) 1.0))
    (fun entries ->
      let a =
        Array.init 9 (fun k ->
            let v = entries.(k) in
            if k / 3 = k mod 3 then 4.0 +. abs_float v else v)
      in
      let x_true = [| 1.0; -2.0; 0.5 |] in
      let b = Linalg.mat_vec ~n:3 a x_true in
      let x = Array.make 3 0.0 in
      Linalg.lu_solve_in_place ~n:3 a (Array.make 3 0) b x;
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-9) x x_true)

(* --------------------------------------------------------------- Solver *)

let test_solver_linear_system () =
  let f x = [| x.(0) +. x.(1) -. 3.0; x.(0) -. x.(1) -. 1.0 |] in
  let r = Solver.solve ~f [| 0.0; 0.0 |] in
  Alcotest.(check bool) "converged" true r.Solver.converged;
  check_float ~eps:1e-8 "x0" 2.0 r.Solver.x.(0);
  check_float ~eps:1e-8 "x1" 1.0 r.Solver.x.(1)

let test_solver_nonlinear () =
  let f x = [| (x.(0) *. x.(0)) -. 4.0; exp x.(1) -. 1.0 |] in
  let r = Solver.solve ~f [| 3.0; 0.5 |] in
  Alcotest.(check bool) "converged" true r.Solver.converged;
  check_float ~eps:1e-6 "x0" 2.0 r.Solver.x.(0);
  check_float ~eps:1e-6 "x1" 0.0 r.Solver.x.(1)

let test_solver_respects_bounds () =
  let f x = [| x.(0) +. 5.0 |] in
  let r = Solver.solve ~lower:[| 0.0 |] ~upper:[| 10.0 |] ~f [| 5.0 |] in
  check_float ~eps:1e-9 "clamped at lower bound" 0.0 r.Solver.x.(0)

let test_solver_does_not_mutate_input () =
  let x0 = [| 1.0; 1.0 |] in
  let f x = [| x.(0) -. 2.0; x.(1) -. 3.0 |] in
  ignore (Solver.solve ~f x0);
  Alcotest.(check bool) "input intact" true (x0 = [| 1.0; 1.0 |])

(* A deliberately starved iteration budget is reported on the result record
   *and* on the registry's nonconvergence counter, never swallowed. *)
let test_solver_reports_nonconvergence () =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  (* x^2 + 1 has no real zero: the residual can never reach tolerance *)
  let f x = [| (x.(0) *. x.(0)) +. 1.0 |] in
  let options = { Solver.default_options with Solver.max_iter = 1 } in
  let r = Solver.solve ~options ~f [| 3.0 |] in
  let snap = Telemetry.Snapshot.take () in
  Telemetry.set_enabled false;
  Alcotest.(check bool) "not converged" false r.Solver.converged;
  Alcotest.(check int) "iterations capped" 1 r.Solver.iterations;
  Alcotest.(check int) "solver.nonconverged counted" 1
    (Telemetry.Snapshot.counter_total snap "solver.nonconverged");
  Alcotest.(check int) "solver.calls counted" 1
    (Telemetry.Snapshot.counter_total snap "solver.calls")

let () =
  Alcotest.run "numeric"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int large bound" `Quick test_rng_int_large_bound;
          Alcotest.test_case "int rejects <= 0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "normal scaling" `Slow test_rng_normal_scaling;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "variance singleton" `Quick test_stats_variance_singleton;
          Alcotest.test_case "min max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile endpoints" `Quick test_stats_percentile_endpoints;
          Alcotest.test_case "percentile unsorted" `Quick test_stats_percentile_unsorted_input;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "histogram counts" `Quick test_stats_histogram_counts;
          Alcotest.test_case "histogram clamps" `Quick test_stats_histogram_in_clamps;
          Alcotest.test_case "histogram degenerate" `Quick test_stats_histogram_degenerate;
          Alcotest.test_case "bin centers" `Quick test_stats_bin_centers;
        ] );
      ( "interp",
        [
          Alcotest.test_case "linspace" `Quick test_interp_linspace;
          Alcotest.test_case "1d exact nodes" `Quick test_interp_1d_exact_on_nodes;
          Alcotest.test_case "1d linear" `Quick test_interp_1d_linear_between;
          Alcotest.test_case "1d clamps" `Quick test_interp_1d_clamps;
          Alcotest.test_case "1d bad axis" `Quick test_interp_1d_rejects_bad_axis;
          Alcotest.test_case "1d rejects NaN" `Quick test_interp_1d_rejects_nan;
          prop_interp_reproduces_linear;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "identity" `Quick test_linalg_identity_solve;
          Alcotest.test_case "known 2x2" `Quick test_linalg_known_system;
          Alcotest.test_case "pivoting" `Quick test_linalg_pivoting;
          Alcotest.test_case "singular" `Quick test_linalg_singular;
          Alcotest.test_case "mat vec" `Quick test_linalg_mat_vec;
          Alcotest.test_case "norms" `Quick test_linalg_norms;
          Alcotest.test_case "scratch reuse" `Quick test_linalg_scratch_reuse;
          prop_lu_solves_random_dd;
        ] );
      ( "solver",
        [
          Alcotest.test_case "linear" `Quick test_solver_linear_system;
          Alcotest.test_case "nonlinear" `Quick test_solver_nonlinear;
          Alcotest.test_case "bounds" `Quick test_solver_respects_bounds;
          Alcotest.test_case "input untouched" `Quick test_solver_does_not_mutate_input;
          Alcotest.test_case "nonconvergence reported" `Quick
            test_solver_reports_nonconvergence;
        ] );
    ]
