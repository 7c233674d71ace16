(* MC-differential validation of the analytic variance propagation.

   The closed form must agree with the sampler it replaces: on every test
   circuit the analytic mean and σ of each component sit within 3 standard
   errors of a 10k-sample Monte-Carlo run, the inner table primitive
   matches a brute-force quadrature oracle, the table λ matches finite
   differences (through the same [Diff_harness.Fd] oracle the device jets
   use), and the estimator-facing entry points honor their determinism
   contracts: bit-identical across pool sizes, across construction order
   of digest-equal netlists, and between a refreshed incremental session
   and a fresh pass. *)

module Params = Leakage_device.Params
module Variation = Leakage_device.Variation
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Sensitivity = Leakage_core.Sensitivity
module Statistical = Leakage_core.Statistical
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats
module Interp = Leakage_numeric.Interp
module Fd = Diff_harness.Fd

let device = Params.d25
let temp = 300.0

(* same coarse grid as diff_harness, so the characterization cache stays
   warm across the test executable *)
let lib =
  Library.create
    ~grid:{ Characterize.max_current = 3.0e-6; points = 5 }
    ~device ~temp ()

let sigmas = Variation.paper_sigmas

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------- circuits *)

let inv_chain n =
  let b = Netlist.Builder.create "chain" in
  let net = ref (Netlist.Builder.input b) in
  for _ = 1 to n do
    net := Netlist.Builder.gate b Gate.Inv [| !net |]
  done;
  Netlist.Builder.mark_output b !net;
  Netlist.Builder.finish b

let nand_tree depth =
  let b = Netlist.Builder.create "tree" in
  let rec level nets =
    match nets with
    | [ last ] ->
      Netlist.Builder.mark_output b last;
      Netlist.Builder.finish b
    | _ ->
      let rec pair = function
        | x :: y :: rest ->
          Netlist.Builder.gate b (Gate.Nand 2) [| x; y |] :: pair rest
        | [ x ] -> [ Netlist.Builder.gate b Gate.Inv [| x |] ]
        | [] -> []
      in
      level (pair nets)
  in
  level (List.init (1 lsl depth) (fun _ -> Netlist.Builder.input b))

let random_pattern seed nl =
  Logic.random_vector (Rng.create seed) (Array.length (Netlist.inputs nl))

let analytic ?(sigmas = sigmas) nl pattern =
  let _, _, res =
    Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib nl pattern
  in
  res

(* ------------------------------------------------- MC-differential core *)

let central_moment4 values mean =
  let acc = ref 0.0 in
  Array.iter
    (fun v ->
      let d = v -. mean in
      acc := !acc +. (d *. d *. d *. d))
    values;
  !acc /. float_of_int (Array.length values)

(* Analytic mean and σ of all four components, loaded and baseline, must
   land within [bound] standard errors of an [samples]-draw Monte-Carlo.
   SE(mean) = s/√n; SE(σ) = √(m₄ − s⁴)/(2 s √n) (asymptotic, kurtosis
   corrected — these totals are heavy-tailed, the Gaussian σ²/2n formula
   would overstate the precision). *)
let check_against_mc ~name ~samples ~seed ~bound nl pattern =
  let res = analytic nl pattern in
  let mc = Statistical.run ~n_samples:samples ~seed ~sigmas lib nl pattern in
  List.iter
    (fun (side, base) ->
      let st =
        if base then res.Sensitivity.baseline else res.Sensitivity.loaded
      in
      List.iter
        (fun (comp, pick, (cs : Sensitivity.component_stat)) ->
          let v =
            Array.map
              (fun (s : Statistical.sample_totals) ->
                pick
                  (if base then s.Statistical.no_loading
                   else s.Statistical.with_loading))
              mc.Statistical.samples
          in
          let n = float_of_int (Array.length v) in
          let m = Stats.mean v and s = Stats.std v in
          let se_mean = s /. sqrt n in
          let m4 = central_moment4 v m in
          let se_sigma =
            sqrt (Float.max 0.0 (m4 -. (s *. s *. s *. s)))
            /. (2.0 *. s *. sqrt n)
          in
          let z_mean = (cs.Sensitivity.mean -. m) /. se_mean in
          let z_sigma = (cs.Sensitivity.sigma -. s) /. se_sigma in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s %s: z_mean=%.2f z_sigma=%.2f (bound %.1f)"
               name side comp z_mean z_sigma bound)
            true
            (Float.abs z_mean <= bound && Float.abs z_sigma <= bound))
        [
          ("isub", (fun c -> c.Report.isub), st.Sensitivity.s_isub);
          ("igate", (fun c -> c.Report.igate), st.Sensitivity.s_igate);
          ("ibtbt", (fun c -> c.Report.ibtbt), st.Sensitivity.s_ibtbt);
          ("total", Report.total, st.Sensitivity.s_total);
        ])
    [ ("loaded", false); ("baseline", true) ]

let test_mc_inv_chain () =
  let nl = inv_chain 8 in
  check_against_mc ~name:"chain8" ~samples:10_000 ~seed:101 ~bound:3.0 nl
    (random_pattern 1 nl)

let test_mc_nand_tree () =
  let nl = nand_tree 4 in
  check_against_mc ~name:"tree16" ~samples:10_000 ~seed:202 ~bound:3.0 nl
    (random_pattern 2 nl)

let test_mc_random_dag () =
  let nl = Diff_harness.random_netlist (Rng.create 7) in
  check_against_mc ~name:"dag" ~samples:10_000 ~seed:303 ~bound:3.0 nl
    (random_pattern 3 nl)

(* ------------------------------------------------- table-moment oracle *)

(* Brute-force oracle for E[exp(T(v))], v ~ N(mu, s²): composite Simpson
   over mu ± 12s, split at the table nodes so no panel straddles a kink.
   The clamped integrand is bounded by e^{max ys}, so truncating at 12s
   loses ~1e-32 of the mass; within each smooth piece 2000 panels put the
   quadrature error far below the comparison tolerance even for the
   steepest generated slopes. *)
let oracle_expect_exp ~xs ~ys ~mu ~s =
  let g = Interp.grid1d ~xs ~ys in
  let two_pi = 8.0 *. atan 1.0 in
  let f v =
    exp (Interp.eval1d g v)
    *. exp (-.((v -. mu) *. (v -. mu)) /. (2.0 *. s *. s))
    /. (s *. sqrt two_pi)
  in
  let lo = mu -. (12.0 *. s) and hi = mu +. (12.0 *. s) in
  let breaks =
    lo :: List.filter (fun x -> x > lo && x < hi) (Array.to_list xs) @ [ hi ]
  in
  let simpson a b =
    let n = 2000 in
    let h = (b -. a) /. float_of_int n in
    let acc = ref (f a +. f b) in
    for i = 1 to n - 1 do
      let w = if i land 1 = 1 then 4.0 else 2.0 in
      acc := !acc +. (w *. f (a +. (float_of_int i *. h)))
    done;
    !acc *. h /. 3.0
  in
  let rec pieces = function
    | a :: (b :: _ as rest) -> simpson a b +. pieces rest
    | _ -> 0.0
  in
  pieces breaks

let gen_table =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* raw = array_size (return n) (float_range (-0.18) 0.18) in
    let* ys = array_size (return n) (float_range (-3.0) 3.0) in
    let* mu = float_range (-0.3) 0.3 in
    let* s = float_range 0.005 0.2 in
    let xs = Array.copy raw in
    Array.sort compare xs;
    (* enforce a minimal node gap so the grid is strictly increasing *)
    for i = 1 to n - 1 do
      if xs.(i) <= xs.(i - 1) +. 1e-4 then xs.(i) <- xs.(i - 1) +. 1e-4
    done;
    return (xs, ys, mu, s))

let prop_expect_exp_table_matches_oracle =
  qtest ~count:60 "expect_exp_table = quadrature oracle" gen_table
    (fun (xs, ys, mu, s) ->
      let a = Sensitivity.expect_exp_table ~xs ~ys ~mu ~s in
      let o = oracle_expect_exp ~xs ~ys ~mu ~s in
      Float.abs (a -. o) <= 1e-4 *. Float.max a o)

let test_expect_exp_degenerate_point () =
  let xs = [| -0.1; 0.0; 0.1 |] and ys = [| -1.0; 0.5; 2.0 |] in
  let g = Interp.grid1d ~xs ~ys in
  List.iter
    (fun mu ->
      Alcotest.(check (float 1e-15))
        (Printf.sprintf "s=0 at mu=%g is a point evaluation" mu)
        (exp (Interp.eval1d g mu))
        (Sensitivity.expect_exp_table ~xs ~ys ~mu ~s:0.0))
    [ -0.25; -0.05; 0.0; 0.07; 0.3 ]

let test_expect_exp_constant_table () =
  (* a flat table is deterministic: E[exp c] = exp c for any spread *)
  let xs = [| -0.1; 0.1 |] and ys = [| 0.7; 0.7 |] in
  Alcotest.(check (float 1e-12))
    "flat table ignores s" (exp 0.7)
    (Sensitivity.expect_exp_table ~xs ~ys ~mu:0.02 ~s:0.5)

let test_vth_log_slope_matches_fd () =
  (* λ really is the log-slope of the tabulated response the sampler
     interpolates, component by component *)
  let entry = Library.entry lib (Gate.Nand 2) (Logic.vector_of_string "01") in
  let slope = Characterize.vth_log_slope entry in
  let at pick dv = pick (Characterize.vth_factor entry dv) in
  List.iter
    (fun (name, pick, analytic) ->
      Fd.check_grad ~tol:1e-6 ~name:("lambda " ^ name) ~h:1e-4
        (fun dv -> log (at pick dv))
        0.0 analytic)
    [
      ("isub", (fun c -> c.Report.isub), slope.Report.isub);
      ("igate", (fun c -> c.Report.igate), slope.Report.igate);
      ("ibtbt", (fun c -> c.Report.ibtbt), slope.Report.ibtbt);
    ]

(* --------------------------------------------------- inter/intra split *)

let scale_sigmas k =
  {
    Variation.sigma_l = k *. sigmas.Variation.sigma_l;
    sigma_tox = k *. sigmas.Variation.sigma_tox;
    sigma_vdd = k *. sigmas.Variation.sigma_vdd;
    sigma_vth_inter = k *. sigmas.Variation.sigma_vth_inter;
    sigma_vth_intra = k *. sigmas.Variation.sigma_vth_intra;
  }

let each_stat res f =
  List.iter
    (fun (side, st) ->
      List.iter
        (fun (comp, cs) -> f (side ^ " " ^ comp) cs)
        [
          ("isub", st.Sensitivity.s_isub);
          ("igate", st.Sensitivity.s_igate);
          ("ibtbt", st.Sensitivity.s_ibtbt);
          ("total", st.Sensitivity.s_total);
        ])
    [
      ("loaded", res.Sensitivity.loaded);
      ("baseline", res.Sensitivity.baseline);
    ]

(* The split is a genuine decomposition: each mechanism alone spreads at
   most marginally more than both together (intra-averaging smooths the
   table, so Jensen can shave a fraction of a percent off the joint σ),
   and their RSS recovers σ up to the multiplicative inter×intra
   interaction the exact moments keep — super-additivity reaching ~13% at
   the paper's sigmas, vanishing as the sigmas shrink. *)
let prop_split_decomposes =
  qtest ~count:20 "sigma_inter/intra decompose sigma"
    QCheck2.Gen.(pair (float_range 0.1 1.0) (int_range 0 10_000))
    (fun (k, seed) ->
      let nl = Diff_harness.random_netlist (Rng.create seed) in
      let pattern = random_pattern (seed + 1) nl in
      let res = analytic ~sigmas:(scale_sigmas k) nl pattern in
      let ok = ref true in
      each_stat res (fun _ (cs : Sensitivity.component_stat) ->
          let s = cs.Sensitivity.sigma in
          let rss =
            sqrt
              ((cs.Sensitivity.sigma_inter *. cs.Sensitivity.sigma_inter)
              +. (cs.Sensitivity.sigma_intra *. cs.Sensitivity.sigma_intra))
          in
          ok :=
            !ok
            && cs.Sensitivity.sigma_inter <= s *. 1.02
            && cs.Sensitivity.sigma_intra <= s *. 1.02
            && rss <= s *. 1.02
            && s <= 1.25 *. rss);
      !ok)

let test_restricted_sigmas_degenerate () =
  let nl = nand_tree 3 in
  let pattern = random_pattern 4 nl in
  let intra = analytic ~sigmas:(Variation.intra_only sigmas) nl pattern in
  each_stat intra (fun name (cs : Sensitivity.component_stat) ->
      Alcotest.(check bool)
        (name ^ ": intra-only kills sigma_inter")
        true
        (cs.Sensitivity.sigma_inter <= 1e-9 *. cs.Sensitivity.sigma
        && cs.Sensitivity.sigma = cs.Sensitivity.sigma_intra));
  let inter = analytic ~sigmas:(Variation.inter_only sigmas) nl pattern in
  each_stat inter (fun name (cs : Sensitivity.component_stat) ->
      Alcotest.(check bool)
        (name ^ ": inter-only kills sigma_intra")
        true
        (cs.Sensitivity.sigma_intra <= 1e-9 *. cs.Sensitivity.sigma
        && cs.Sensitivity.sigma = cs.Sensitivity.sigma_inter))

(* ---------------------------------------------------------- determinism *)

let test_pool_sizes_bit_identical () =
  let nl = nand_tree 5 in
  let pattern = random_pattern 5 nl in
  let reference =
    Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib nl pattern
  in
  List.iter
    (fun jobs ->
      let r =
        Leakage_parallel.Pool.with_pool ~jobs (fun pool ->
            Sensitivity.estimate_totals ~pool ~fallback_samples:0 ~sigmas lib
              nl pattern)
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d bit-identical" jobs)
        true
        (Stdlib.compare reference r = 0))
    [ 1; 2; 4; 8 ]

(* Two construction orders of the same circuit: same canonical digest, and
   every reported digit of the variance result identical — the analysis
   depends only on the multiset of per-gate rows, never on gate ids. *)
let iso_netlist flip =
  let b = Netlist.Builder.create (if flip then "iso-a" else "iso-b") in
  let i0 = Netlist.Builder.input b in
  let i1 = Netlist.Builder.input b in
  let mk_inv () = Netlist.Builder.gate b Gate.Inv [| i0 |] in
  let mk_nand () = Netlist.Builder.gate b (Gate.Nand 2) [| i0; i1 |] in
  let x, y =
    if flip then
      let y = mk_nand () in
      let x = mk_inv () in
      (x, y)
    else
      let x = mk_inv () in
      let y = mk_nand () in
      (x, y)
  in
  let z = Netlist.Builder.gate b (Gate.Nor 2) [| x; y |] in
  let w = Netlist.Builder.gate b Gate.Inv [| y |] in
  Netlist.Builder.mark_output b z;
  Netlist.Builder.mark_output b w;
  Netlist.Builder.finish b

let test_construction_order_invariant () =
  let a = iso_netlist false and b = iso_netlist true in
  Alcotest.(check string)
    "same canonical digest" (Netlist.digest a) (Netlist.digest b);
  let pattern = Logic.vector_of_string "01" in
  Alcotest.(check bool)
    "bit-identical variance result" true
    (Stdlib.compare (analytic a pattern) (analytic b pattern) = 0)

let test_incremental_sigma_matches_fresh () =
  let nl = Diff_harness.random_netlist (Rng.create 11) in
  let pattern = random_pattern 12 nl in
  let s = Incremental.create lib nl pattern in
  let rng = Rng.create 13 in
  for _ = 1 to 3 do
    Incremental.apply s
      (Edit.random_resize ~strengths:[| 0.5; 1.0; 2.0 |] rng
         (Incremental.current_netlist s))
  done;
  Incremental.apply s (Edit.random_set_input rng (Incremental.current_netlist s));
  Incremental.refresh s;
  let from_session = Incremental.sigma ~sigmas s in
  let _, _, fresh =
    Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib
      (Incremental.current_netlist s)
      (Incremental.pattern s)
  in
  Alcotest.(check bool)
    "refreshed session sigma = fresh pass" true
    (Stdlib.compare from_session fresh = 0)

(* ------------------------------------------------------------- fallback *)

let test_geometry_flag_triggers_mc_fallback () =
  (* A wild length sigma pushes the ±2σ corner against the geometry clamp,
     far outside the quadratic log model: the component must flag, and the
     default entry point must swap in the MC fallback (marked from_mc)
     while fallback_samples:0 keeps the flagged closed form. *)
  let wild = { sigmas with Variation.sigma_l = 0.25 *. device.Params.length } in
  let nl = inv_chain 4 in
  let pattern = random_pattern 6 nl in
  let _, _, closed =
    Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas:wild lib nl pattern
  in
  Alcotest.(check bool) "flag trips" true (Sensitivity.flagged closed);
  each_stat closed (fun name (cs : Sensitivity.component_stat) ->
      Alcotest.(check bool) (name ^ ": no MC when disabled") false
        cs.Sensitivity.from_mc);
  let _, _, fb =
    Sensitivity.estimate_totals ~fallback_samples:500 ~fallback_seed:5
      ~sigmas:wild lib nl pattern
  in
  Alcotest.(check bool) "still reported as flagged" true
    (Sensitivity.flagged fb);
  let flagged_of = function
    | "isub" -> fb.Sensitivity.flagged_isub
    | "igate" -> fb.Sensitivity.flagged_igate
    | "ibtbt" -> fb.Sensitivity.flagged_ibtbt
    | _ -> Sensitivity.flagged fb (* total inherits any flag *)
  in
  each_stat fb (fun name (cs : Sensitivity.component_stat) ->
      let comp = List.nth (String.split_on_char ' ' name) 1 in
      Alcotest.(check bool)
        (name ^ ": from_mc iff flagged")
        (flagged_of comp) cs.Sensitivity.from_mc;
      Alcotest.(check bool)
        (name ^ ": finite and positive")
        true
        (Float.is_finite cs.Sensitivity.mean
        && Float.is_finite cs.Sensitivity.sigma
        && cs.Sensitivity.mean > 0.0))

let () =
  Alcotest.run "sensitivity"
    [
      ( "mc-differential",
        [
          Alcotest.test_case "inverter chain" `Slow test_mc_inv_chain;
          Alcotest.test_case "nand tree" `Slow test_mc_nand_tree;
          Alcotest.test_case "random dag" `Slow test_mc_random_dag;
        ] );
      ( "table moments",
        [
          prop_expect_exp_table_matches_oracle;
          Alcotest.test_case "s=0 point evaluation" `Quick
            test_expect_exp_degenerate_point;
          Alcotest.test_case "flat table" `Quick test_expect_exp_constant_table;
          Alcotest.test_case "lambda vs FD" `Quick test_vth_log_slope_matches_fd;
        ] );
      ( "inter/intra",
        [
          prop_split_decomposes;
          Alcotest.test_case "restricted sigmas degenerate" `Quick
            test_restricted_sigmas_degenerate;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pool sizes" `Quick test_pool_sizes_bit_identical;
          Alcotest.test_case "construction order" `Quick
            test_construction_order_invariant;
          Alcotest.test_case "incremental vs fresh" `Quick
            test_incremental_sigma_matches_fresh;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "geometry flag -> MC" `Quick
            test_geometry_flag_triggers_mc_fallback;
        ] );
    ]
