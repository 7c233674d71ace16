(* Bit pins for the transistor-level path. The golden corpus compares at
   1e-6 relative, so a last-bit change in the device model or the DC solver
   passes it unseen; these cases hash the exact IEEE bits of the device
   model on a bias grid, of characterization entries, of DC solutions and
   of MTCMOS runs, and compare against literal hex digests (the way
   test_circuit pins [Netlist.digest]). Reordering one floating-point
   operation in the model or the solver moves them.

   The σ group pins the analytic variance propagation the same way: every
   float, flag and class count of [Sensitivity.estimate_totals] on the
   golden corpus (sequential and on a 2-domain pool), and of
   [Incremental.sigma] after a refresh.

   The estimator group pins the Fig-13 estimator the same way: totals of
   [Estimator.estimate_totals] on the golden corpus at the default grid,
   vector averages and resampling (sequential and on a 2-domain pool), the
   per-gate rows of a three-pass [Estimator.estimate], and a mixed-library
   estimate.

   The last group pins the work: device-model evaluations per solve, as the
   [dc.device_evals] counter reports them. *)

module Params = Leakage_device.Params
module Model = Leakage_device.Model
module Interp = Leakage_numeric.Interp
module Rng = Leakage_numeric.Rng
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Variation = Leakage_device.Variation
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Sensitivity = Leakage_core.Sensitivity
module Estimator = Leakage_core.Estimator
module Vector_mc = Leakage_incremental.Vector_mc
module Testbench = Leakage_core.Testbench
module Mtcmos = Leakage_core.Mtcmos
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Pool = Leakage_parallel.Pool
module Trees = Leakage_benchmarks.Trees
module Report = Leakage_spice.Leakage_report
module Dc = Leakage_spice.Dc_solver
module Suite = Leakage_benchmarks.Suite
module Tm = Leakage_telemetry.Telemetry

(* MD5 over the little-endian bit patterns, in the order [fill] emits. *)
let digest_floats fill =
  let b = Buffer.create 4096 in
  fill (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x));
  Digest.to_hex (Digest.string (Buffer.contents b))

let emit_components put (c : Report.components) =
  put c.Report.isub;
  put c.Report.igate;
  put c.Report.ibtbt

(* ----------------------------------------------------------- device model *)

(* Reaches every branch: forward and reverse oxide fields, the EKV
   large-argument branch (vg = 6 V against a source at -4 V), both logistic
   clamps, and the forward-junction branch with and without its u <= 40
   clamp. *)
let grid_volts = [| -4.0; -1.5; -0.2; 0.0; 0.35; 0.9; 2.0; 6.0 |]
let grid_bulk = [| -0.5; 0.0; 0.9 |]

let components_digest () =
  digest_floats (fun put ->
      List.iter
        (fun device ->
          List.iter
            (fun pol ->
              List.iter
                (fun temp ->
                  List.iter
                    (fun w ->
                      Array.iter
                        (fun vg ->
                          Array.iter
                            (fun vd ->
                              Array.iter
                                (fun vs ->
                                  Array.iter
                                    (fun vb ->
                                      let c =
                                        Model.components device pol ~w ~temp
                                          { Model.vg; vd; vs; vb }
                                      in
                                      put c.Model.ids;
                                      put c.Model.igso;
                                      put c.Model.igdo;
                                      put c.Model.igcs;
                                      put c.Model.igcd;
                                      put c.Model.igb;
                                      put c.Model.ibtbt_d;
                                      put c.Model.ibtbt_s;
                                      let t = Model.terminals_of_components c in
                                      put t.Model.into_gate;
                                      put t.Model.into_drain;
                                      put t.Model.into_source;
                                      put t.Model.into_bulk)
                                    grid_bulk)
                                grid_volts)
                            grid_volts)
                        grid_volts)
                    [ 1.0; 2.5 ])
                [ 250.0; 300.0; 420.0 ])
            [ Params.Nmos; Params.Pmos ])
        [ Params.d25; Params.d50; Params.d25_s; Params.d25_g; Params.d25_jn ])

let test_components_bits () =
  Alcotest.(check string) "Model.components on the bias grid"
    "aba35ae38a95569bccfbcaa172bebbe6" (components_digest ())

(* -------------------------------------------------------- characterization *)

let golden_grid = { Characterize.max_current = 3.0e-6; points = 5 }

let emit_entry put (e : Characterize.entry) =
  emit_components put e.Characterize.nominal_isolated;
  emit_components put e.Characterize.nominal_driven;
  Array.iter put e.Characterize.pin_injection;
  Array.iter
    (fun g -> Array.iter put g.Interp.ys)
    e.Characterize.pin_response;
  Array.iter put e.Characterize.currents;
  Array.iter put e.Characterize.deltas;
  let t = e.Characterize.vth_log_factor in
  List.iter
    (fun g -> Array.iter put g.Interp.ys)
    [ t.Characterize.d_isub; t.Characterize.d_igate; t.Characterize.d_ibtbt ]

let entries_digest ?strength ~device ~temp kinds =
  digest_floats (fun put ->
      List.iter
        (fun kind ->
          List.iter
            (fun vector ->
              emit_entry put
                (Characterize.characterize ~grid:golden_grid ?strength ~device
                   ~temp kind vector))
            (Logic.all_vectors (Gate.arity kind)))
        kinds)

let test_characterize_golden_grid () =
  Alcotest.(check string) "every kind and vector at D25/300 K"
    "c66bff87dfb41e60611f20c8c38e3b8e"
    (entries_digest ~device:Params.d25 ~temp:300.0 Gate.all_kinds)

let test_characterize_hot_corner () =
  Alcotest.(check string) "NAND2 and AOI22 at D25-S/420 K, strength 2"
    "b5a13d7976ba45c7c8d2f0d5acb212fd"
    (entries_digest ~strength:2.0 ~device:Params.d25_s ~temp:420.0
       [ Gate.Nand 2; Gate.Aoi22 ])

(* ------------------------------------------------------- circuit solutions *)

let fixed_vector nl seed =
  Logic.random_vector (Rng.create seed) (Array.length (Netlist.inputs nl))

let analyze_digest name =
  let nl = (Suite.find name).Suite.build () in
  let report, result, _ =
    Report.analyze ~device:Params.d25 ~temp:300.0 nl (fixed_vector nl 11)
  in
  digest_floats (fun put ->
      Array.iter put result.Dc.voltages;
      put (float_of_int result.Dc.sweeps);
      put (if result.Dc.converged then 1.0 else 0.0);
      put result.Dc.max_residual;
      Array.iter (emit_components put) report.Report.per_gate;
      emit_components put report.Report.totals;
      put report.Report.vdd_current;
      put report.Report.gnd_current)

let test_analyze_bits name expected () =
  Alcotest.(check string) (name ^ " voltages, components and sweeps")
    expected (analyze_digest name)

let emit_mode put (m : Mtcmos.mode_result) =
  emit_components put m.Mtcmos.leakage;
  emit_components put m.Mtcmos.footer_leakage;
  put m.Mtcmos.virtual_ground;
  put (if m.Mtcmos.converged then 1.0 else 0.0)

let mtcmos_digest nl pattern =
  let r = Mtcmos.analyze ~device:Params.d25 ~temp:300.0 nl pattern in
  digest_floats (fun put ->
      emit_components put r.Mtcmos.ungated;
      emit_mode put r.Mtcmos.active;
      emit_mode put r.Mtcmos.standby;
      put r.Mtcmos.standby_reduction_percent;
      put r.Mtcmos.active_overhead_percent)

(* A few gates, well under 150 unknowns: every mode takes [solve_dense]. *)
let small_chain () =
  let b = Netlist.Builder.create "bits_chain" in
  let a = Netlist.Builder.input ~name:"a" b in
  let c = Netlist.Builder.input ~name:"c" b in
  let n1 = Netlist.Builder.gate b Gate.Inv [| a |] in
  let n2 = Netlist.Builder.gate b (Gate.Nand 2) [| n1; c |] in
  let n3 = Netlist.Builder.gate b Gate.Inv [| n2 |] in
  let n4 = Netlist.Builder.gate b Gate.Aoi21 [| n2; n3; a |] in
  Netlist.Builder.mark_output b n3;
  Netlist.Builder.mark_output b n4;
  Netlist.Builder.finish b

let test_mtcmos_dense_bits () =
  Alcotest.(check string) "dense Newton under 150 unknowns"
    "b3be53e4b3e3c47dad1369f8c7c10f79"
    (mtcmos_digest (small_chain ()) (Logic.vector_of_string "01"))

let test_mtcmos_sweep_bits () =
  let nl = (Suite.find "alu88").Suite.build () in
  Alcotest.(check string) "interleaved virtual-ground sweep on alu88"
    "008a9ace3ab20cb65b47ec345e52d191"
    (mtcmos_digest nl (fixed_vector nl 3))

(* -------------------------------------------------------------- sigma bits *)

(* The golden corpus (the paper's suite plus the 16k-deep tapped chain) at
   the coarse grid, D25/300 K, under the paper's sigmas. *)
let sigma_lib =
  lazy (Library.create ~grid:golden_grid ~device:Params.d25 ~temp:300.0 ())

let flag put b = put (if b then 1.0 else 0.0)

let emit_stat put (s : Sensitivity.component_stat) =
  put s.Sensitivity.mean;
  put s.Sensitivity.sigma;
  put s.Sensitivity.sigma_inter;
  put s.Sensitivity.sigma_intra;
  flag put s.Sensitivity.from_mc

let emit_stats put (st : Sensitivity.stats) =
  List.iter (emit_stat put)
    [ st.Sensitivity.s_isub; st.Sensitivity.s_igate; st.Sensitivity.s_ibtbt;
      st.Sensitivity.s_total ]

let emit_sigma put (r : Sensitivity.result) =
  emit_stats put r.Sensitivity.loaded;
  emit_stats put r.Sensitivity.baseline;
  flag put r.Sensitivity.flagged_isub;
  flag put r.Sensitivity.flagged_igate;
  flag put r.Sensitivity.flagged_ibtbt;
  put (float_of_int r.Sensitivity.flagged_gates);
  put (float_of_int r.Sensitivity.groups)

let sigma_digest ?pool nl =
  let totals, baseline, res =
    Sensitivity.estimate_totals ?pool ~sigmas:Variation.paper_sigmas
      (Lazy.force sigma_lib) nl (fixed_vector nl 11)
  in
  digest_floats (fun put ->
      emit_components put totals;
      emit_components put baseline;
      emit_sigma put res)

let corpus =
  List.map (fun (e : Suite.entry) -> (e.Suite.label, e.Suite.build)) Suite.all
  @ [ ("chain16k", fun () -> Trees.chain ~stages:16384 ~tap_every:64 ()) ]

let sigma_pins =
  [
    ("s838", "0b877969e7dbce83af1c6d38e3312d4e");
    ("s1196", "e1d4430454df1cb8e107c52890bc833f");
    ("s1423", "d5fd5cc1b2760ed69b894014a7d9081f");
    ("s5378", "5713f7bd59e0b8b29ef92c54a0142064");
    ("s9234", "425c7d9b3b65bd8c155018493f8860a4");
    ("s13207", "a7367c9e8ae19cbf2e0da0007c3aa152");
    ("alu88", "ec17cec407898bf9c3f002bc1ac01c77");
    ("mult88", "b26159689bfe6b3b4e888a5ea528865e");
    ("chain16k", "6a2fd7f9a2c390160124108b2be5a7f2");
  ]

let test_sigma_bits label expected () =
  let nl = (List.assoc label corpus) () in
  Alcotest.(check string) (label ^ " sequential") expected (sigma_digest nl);
  Alcotest.(check string) (label ^ " on 2 domains") expected
    (Pool.with_pool ~jobs:2 (fun pool -> sigma_digest ~pool nl))

(* A session whose gates mix three strengths and two libraries (Relib to a
   high-Vth corner takes entries from another library), refreshed: its σ
   runs over the session's cached per-gate state. *)
let test_incremental_sigma_bits () =
  let lib = Lazy.force sigma_lib in
  let hvt =
    Library.create ~grid:golden_grid
      ~device:(Params.with_vth_shift Params.d25 0.08) ~temp:300.0 ()
  in
  let nl = (Suite.find "s838").Suite.build () in
  let s = Incremental.create lib nl (fixed_vector nl 5) in
  let rng = Rng.create 17 in
  for _ = 1 to 6 do
    Incremental.apply s
      (Edit.random_resize ~strengths:[| 0.5; 2.0 |] rng
         (Incremental.current_netlist s))
  done;
  List.iter (fun g -> Incremental.apply s (Edit.Relib (g, hvt))) [ 3; 40; 41; 97 ];
  Incremental.apply s (Edit.random_set_input rng (Incremental.current_netlist s));
  Incremental.refresh s;
  let res = Incremental.sigma ~sigmas:Variation.paper_sigmas s in
  Alcotest.(check string) "s838 session after refresh"
    "91fdf9f5c0f3409e41c25285f162fb87"
    (digest_floats (fun put -> emit_sigma put res))

(* ---------------------------------------------------------- estimator bits *)

(* The estimator at the default grid (21 nodes), D25/300 K: every lookup
   interpolates on the axis the benchmark and the CLI use. *)
let est_lib = lazy (Library.create ~device:Params.d25 ~temp:300.0 ())

let est_vectors nl = List.map (fixed_vector nl) [ 21; 22; 23; 24 ]

let totals_pins =
  [
    ("s838", "18ee0fee840db86dbb748f4376b8cb6c");
    ("s1196", "5c86cda7965e1b1d63101bf636140971");
    ("s1423", "d20cad48785933482d1e0b7b5f9941a6");
    ("s5378", "364db6d081bb98ea2afdf55ec0bf8096");
    ("s9234", "b67cfeace7c473b7f9576c21cdff9e6b");
    ("s13207", "d1387397576fec9d3aaf3bd4db821d18");
    ("alu88", "a14dc61aadb5bb7dd03bc24bdcaf0d32");
    ("mult88", "b60f9911b01297268cdb445efc410d31");
    ("chain16k", "6ffcdd5d93af1a7763dc913a28cfc099");
  ]

let test_totals_bits label expected () =
  let nl = (List.assoc label corpus) () in
  let lib = Lazy.force est_lib in
  Alcotest.(check string) (label ^ " at 4 vectors") expected
    (digest_floats (fun put ->
         List.iter
           (fun v ->
             let loaded, baseline = Estimator.estimate_totals lib nl v in
             emit_components put loaded;
             emit_components put baseline)
           (est_vectors nl)))

(* 33 vectors: two full summation chunks and a one-vector tail. *)
let test_average_bits () =
  let nl = (Suite.find "alu88").Suite.build () in
  let lib = Lazy.force est_lib in
  let vs = List.init 33 (fun i -> fixed_vector nl (100 + i)) in
  let digest ?pool () =
    let loaded, baseline = Estimator.average_over_vectors ?pool lib nl vs in
    digest_floats (fun put ->
        emit_components put loaded;
        emit_components put baseline)
  in
  let expected = "ceafcf249d957ddcd268912d88cbaa7e" in
  Alcotest.(check string) "alu88 sequential" expected (digest ());
  Alcotest.(check string) "alu88 on 2 domains" expected
    (Pool.with_pool ~jobs:2 (fun pool -> digest ~pool ()))

let emit_estimate put (r : Estimator.result) =
  Array.iter
    (fun (g : Estimator.gate_estimate) ->
      emit_components put g.Estimator.with_loading;
      emit_components put g.Estimator.no_loading;
      Array.iter put g.Estimator.loading_in;
      put g.Estimator.loading_out)
    r.Estimator.per_gate;
  emit_components put r.Estimator.totals;
  emit_components put r.Estimator.baseline_totals;
  Array.iter put r.Estimator.net_injection

let test_passes_bits label expected () =
  let nl = (Suite.find label).Suite.build () in
  let r =
    Estimator.estimate ~passes:3 (Lazy.force est_lib) nl (fixed_vector nl 31)
  in
  Alcotest.(check string) (label ^ " per-gate rows, 3 passes") expected
    (digest_floats (fun put -> emit_estimate put r))

(* Every third gate takes its entries from a +80 mV threshold corner. *)
let test_mixed_library_bits () =
  let lib = Lazy.force est_lib in
  let hvt =
    Library.create ~device:(Params.with_vth_shift Params.d25 0.08)
      ~temp:300.0 ()
  in
  let nl = (Suite.find "s838").Suite.build () in
  let library_of_gate g = if g mod 3 = 0 then hvt else lib in
  let r = Estimator.estimate ~library_of_gate lib nl (fixed_vector nl 32) in
  Alcotest.(check string) "s838 with a +80 mV third" "324f97a91660cfbd9f1fe479e28d39a1"
    (digest_floats (fun put -> emit_estimate put r))

(* 70 samples: two full chunks and a six-sample tail. *)
let test_resample_bits () =
  let nl = (Suite.find "alu88").Suite.build () in
  let lib = Lazy.force est_lib in
  let digest ?pool () =
    let r = Vector_mc.resample ?pool ~seed:7 ~samples:70 lib nl in
    digest_floats (fun put ->
        Array.iter put r.Vector_mc.totals;
        Array.iter put r.Vector_mc.baselines;
        emit_components put r.Vector_mc.mean_components;
        put r.Vector_mc.mean_shift_percent)
  in
  let expected = "1a14dd9dcb9def36f3cc817cd79ceea2" in
  Alcotest.(check string) "alu88 sequential" expected (digest ());
  Alcotest.(check string) "alu88 on 2 domains" expected
    (Pool.with_pool ~jobs:2 (fun pool -> digest ~pool ()))

(* ------------------------------------------------------------- work counts *)

(* A count above the pinned one means the solver evaluates devices whose
   bias did not move. *)

let evals_of f =
  let was = Tm.enabled () in
  Tm.set_enabled true;
  Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
  let count () =
    Tm.Snapshot.counter_total (Tm.Snapshot.take ()) "dc.device_evals"
  in
  let before = count () in
  f ();
  count () - before

let testbench_evals kind bits =
  evals_of (fun () ->
      ignore
        (Testbench.solve ~device:Params.d25 ~temp:300.0
           (Testbench.make kind (Logic.vector_of_string bits))))

let test_testbench_evals () =
  Alcotest.(check int) "NAND2 testbench" 283
    (testbench_evals (Gate.Nand 2) "10");
  Alcotest.(check int) "XOR2 testbench" 700 (testbench_evals Gate.Xor "01");
  Alcotest.(check int) "AOI22 testbench" 588
    (testbench_evals Gate.Aoi22 "0110")

let test_s838_evals () =
  let nl = (Suite.find "s838").Suite.build () in
  let v = fixed_vector nl 11 in
  Alcotest.(check int) "s838 solve" 83958
    (evals_of (fun () ->
         ignore (Report.analyze ~device:Params.d25 ~temp:300.0 nl v)))

let () =
  Alcotest.run "bits"
    [
      ( "device-bits",
        [ Alcotest.test_case "components on a bias grid" `Quick
            test_components_bits ] );
      ( "characterize-bits",
        [
          Alcotest.test_case "golden grid at D25/300 K" `Quick
            test_characterize_golden_grid;
          Alcotest.test_case "D25-S/420 K at strength 2" `Quick
            test_characterize_hot_corner;
        ] );
      ( "solution-bits",
        [
          Alcotest.test_case "alu88" `Quick
            (test_analyze_bits "alu88" "25c6300323059277a65428fc95ba74c2");
          Alcotest.test_case "s838" `Quick
            (test_analyze_bits "s838" "8b6977a7190899eea449d324230fdb09");
          Alcotest.test_case "mult88" `Quick
            (test_analyze_bits "mult88" "4a578649f22bf3dbf840496b7069ba30");
          Alcotest.test_case "mtcmos dense" `Quick test_mtcmos_dense_bits;
          Alcotest.test_case "mtcmos sweep" `Quick test_mtcmos_sweep_bits;
        ] );
      ( "sigma-bits",
        List.map
          (fun (label, expected) ->
            Alcotest.test_case label `Quick (test_sigma_bits label expected))
          sigma_pins
        @ [ Alcotest.test_case "incremental after refresh" `Quick
              test_incremental_sigma_bits ] );
      ( "estimator-bits",
        List.map
          (fun (label, expected) ->
            Alcotest.test_case ("totals " ^ label) `Quick
              (test_totals_bits label expected))
          totals_pins
        @ [
            Alcotest.test_case "average over 33 vectors" `Quick
              test_average_bits;
            Alcotest.test_case "3 passes s838" `Quick
              (test_passes_bits "s838" "b4d656e7369c2d08aeee4fb72b3c9eb6");
            Alcotest.test_case "3 passes alu88" `Quick
              (test_passes_bits "alu88" "6fcad38e048e7e64f8381ee633783847");
            Alcotest.test_case "mixed libraries" `Quick
              test_mixed_library_bits;
            Alcotest.test_case "resample alu88" `Quick test_resample_bits;
          ] );
      ( "solver-work",
        [
          Alcotest.test_case "testbench solves" `Quick test_testbench_evals;
          Alcotest.test_case "s838 solve" `Quick test_s838_evals;
        ] );
    ]
