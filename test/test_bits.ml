(* Bit pins for the transistor-level path. The golden corpus compares at
   1e-6 relative, so a last-bit change in the device model or the DC solver
   passes it unseen; these cases hash the exact IEEE bits of the device
   model on a bias grid, of characterization entries, of DC solutions and
   of MTCMOS runs, and compare against literal hex digests (the way
   test_circuit pins [Netlist.digest]). Reordering one floating-point
   operation in the model or the solver moves them.

   The σ group pins the analytic variance propagation the same way: every
   float, flag and class count of [Sensitivity.estimate_totals] on the
   golden corpus (sequential and on a 2-domain pool), of one library
   analyzed again and again under changing sigmas, and of [Incremental.sigma]
   after a refresh and on a dual-Vth session. The Monte-Carlo sampler's
   samples are pinned beside them.

   The estimator group pins the Fig-13 estimator the same way: totals of
   [Estimator.estimate_totals] on the golden corpus, vector averages and
   resampling (sequential and on a 2-domain pool), the per-gate rows of a
   three-pass [Estimator.estimate], and a mixed-library estimate, all on a
   21-point current axis; and the corpus totals and resampling again on
   the default grid.

   The loading group pins the Figs 5-9 sweeps of [Loading], which run on a
   compiled testbench.

   The last group pins the work: device-model evaluations per solve, as the
   [dc.device_evals] counter reports them, the gate-only ones among them
   ([dc.gate_evals]), solves per characterization ([dc.solves]) and the
   allocation of a solve on a compiled kernel. *)

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
module Loading = Leakage_core.Loading
module Mtcmos = Leakage_core.Mtcmos
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Dual_vth = Leakage_incremental.Dual_vth
module Statistical = Leakage_core.Statistical
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

(* Currents from the nets into gate, drain, source and bulk, summed as the
   solver sums them. *)
let terminals (c : Model.components) =
  let t = Array.make 4 0.0 in
  Model.terminals_into
    [| c.Model.ids; c.Model.igso; c.Model.igdo; c.Model.igcs; c.Model.igcd;
       c.Model.igb; c.Model.ibtbt_d; c.Model.ibtbt_s |]
    t 0;
  t


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
                                      let t = terminals c in
                                      put t.(0);
                                      put t.(1);
                                      put t.(2);
                                      put t.(3))
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
  let t = Characterize.vth_log_factor e in
  List.iter
    (fun g -> Array.iter put g.Interp.ys)
    [ t.Characterize.d_isub; t.Characterize.d_igate; t.Characterize.d_ibtbt ]

let entries_digest ?(grid = golden_grid) ?strength ~device ~temp kinds =
  digest_floats (fun put ->
      List.iter
        (fun kind ->
          List.iter
            (fun vector ->
              emit_entry put
                (Characterize.characterize ~grid ?strength ~device
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

(* An even point count puts no node at zero current: every sweep point is
   a solve of its own. *)
let test_characterize_no_zero_node () =
  Alcotest.(check string) "every kind and vector at 4 points"
    "44340e7ff3eb0ea7d80f79d949e94e4c"
    (entries_digest ~grid:{ golden_grid with Characterize.points = 4 }
       ~device:Params.d25 ~temp:300.0 Gate.all_kinds)

(* The threshold table as the characterization itself used to build it:
   on the characterization bench, after the nominal and every port's
   current sweep, one solve per shift (the zero shift is the nominal). *)
let eager_vth_table ~device ~temp kind vector =
  let tb = Testbench.make kind vector in
  let bench = Testbench.compile ~device ~temp tb in
  let nominal = (Testbench.solve bench).Testbench.leakage in
  let xs =
    Interp.linspace
      (-.Characterize.default_grid.Characterize.max_current)
      Characterize.default_grid.Characterize.max_current
      Characterize.default_grid.Characterize.points
  in
  Array.iter
    (fun net ->
      Array.iter
        (fun amps -> ignore (Testbench.solve ~injections:[ (net, amps) ] bench))
        xs)
    (Array.append tb.Testbench.pin_nets [| tb.Testbench.out_net |]);
  let dvs = Interp.linspace (-0.15) 0.15 9 in
  let samples =
    Array.map
      (fun dv -> (Testbench.solve ~dut_vth_shift:dv bench).Testbench.leakage)
      dvs
  in
  List.map
    (fun pick ->
      let base = pick nominal in
      Array.map
        (fun c ->
          let v = pick c in
          if v <= 0.0 || base <= 0.0 then 0.0 else log (v /. base))
        samples)
    [ (fun c -> c.Report.isub); (fun c -> c.Report.igate);
      (fun c -> c.Report.ibtbt) ]

let table_bits (t : Characterize.table) =
  List.map
    (fun g -> Array.map Int64.bits_of_float g.Interp.ys)
    [ t.Characterize.d_isub; t.Characterize.d_igate; t.Characterize.d_ibtbt ]

(* A table built on its first read, on a bench of its own, holds the bits
   of the sweep on the characterization bench, for every kind and vector
   at the nominal and the hot corner. *)
let test_vth_tables_on_first_read () =
  List.iter
    (fun (device, temp, corner) ->
      List.iter
        (fun kind ->
          List.iter
            (fun vector ->
              let e = Characterize.characterize ~device ~temp kind vector in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s at %s" (Gate.name kind)
                   (Logic.vector_to_string vector) corner)
                true
                (table_bits (Characterize.vth_log_factor e)
                 = List.map (Array.map Int64.bits_of_float)
                     (eager_vth_table ~device ~temp kind vector)))
            (Logic.all_vectors (Gate.arity kind)))
        Gate.all_kinds)
    [ (Params.d25, 300.0, "D25/300 K"); (Params.d25_s, 420.0, "D25-S/420 K") ]

(* Two domains reading one cold entry's table at once build the same bits;
   the first publish wins, so both, and every later read, get that one
   table. *)
let test_vth_table_race () =
  let kind = Gate.Aoi22 and vector = Logic.vector_of_string "0110" in
  let e = Characterize.characterize ~device:Params.d25 ~temp:300.0 kind vector in
  let ready = Atomic.make 0 in
  let read () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    Characterize.vth_log_factor e
  in
  let other = Domain.spawn read in
  let mine = read () in
  let theirs = Domain.join other in
  Alcotest.(check bool) "one table for both domains" true (mine == theirs);
  Alcotest.(check bool) "later reads get it too" true
    (Characterize.vth_log_factor e == mine);
  Alcotest.(check bool) "the eager sweep's bits" true
    (table_bits mine
     = List.map (Array.map Int64.bits_of_float)
         (eager_vth_table ~device:Params.d25 ~temp:300.0 kind vector))

(* ------------------------------------------------------------ loading bits *)

let emit_ld put (p : Loading.ld_point) =
  put p.Loading.current;
  put p.Loading.ld_sub;
  put p.Loading.ld_gate;
  put p.Loading.ld_btbt;
  put p.Loading.ld_total

(* Figs 5-9 on INV and NAND2 under every vector: input (each pin) and
   output sweeps over the default currents, the combined LD_ALL point and
   the temperature sweep. *)
let loading_digest kind =
  let device = Params.d25 and temp = 300.0 in
  digest_floats (fun put ->
      List.iter
        (fun vector ->
          for pin = 0 to Gate.arity kind - 1 do
            Array.iter (emit_ld put)
              (Loading.input_sweep ~device ~temp ~pin kind vector)
          done;
          Array.iter (emit_ld put)
            (Loading.output_sweep ~device ~temp kind vector);
          emit_ld put
            (Loading.combined ~device ~temp ~input_current:1.5e-6
               ~output_current:2.0e-6 kind vector);
          Array.iter
            (fun (celsius, p) ->
              put celsius;
              emit_ld put p)
            (Loading.temperature_sweep ~device
               ~temps_celsius:[| 0.0; 55.0; 110.0 |] ~input_current:1.0e-6
               ~output_current:1.0e-6 kind vector))
        (Logic.all_vectors (Gate.arity kind)))

let test_loading_bits kind expected () =
  Alcotest.(check string)
    (Gate.name kind ^ " sweeps, LD_ALL and temperature")
    expected (loading_digest kind)

(* ------------------------------------------------------- circuit solutions *)

let fixed_vector nl seed =
  Logic.random_vector (Rng.create seed) (Array.length (Netlist.inputs nl))

let analyze_digest name =
  let nl = (Suite.find name).Suite.build () in
  let report, result, flat =
    Report.analyze ~device:Params.d25 ~temp:300.0 nl (fixed_vector nl 11)
  in
  digest_floats (fun put ->
      Array.iter put result.Dc.voltages;
      put (float_of_int result.Dc.sweeps);
      put (if result.Dc.converged then 1.0 else 0.0);
      put (Dc.max_residual flat result.Dc.voltages);
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
let fresh_sigma_lib ?(device = Params.d25) () =
  Library.create ~grid:golden_grid ~device ~temp:300.0 ()

let sigma_lib = lazy (fresh_sigma_lib ())

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

let sigma_digest_on ?pool ~sigmas lib nl =
  let totals, baseline, res =
    Sensitivity.estimate_totals ?pool ~sigmas lib nl (fixed_vector nl 11)
  in
  digest_floats (fun put ->
      emit_components put totals;
      emit_components put baseline;
      emit_sigma put res)

let sigma_digest ?pool nl =
  sigma_digest_on ?pool ~sigmas:Variation.paper_sigmas (Lazy.force sigma_lib)
    nl

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
  let hvt = fresh_sigma_lib ~device:(Params.with_vth_shift Params.d25 0.08) () in
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

(* One library analyzed again and again: cold, warm, under inter-only
   sigmas, under the paper's again, then on a second circuit that shares
   many of its classes. Each call must read the bits a fresh library gives
   for the same circuit and sigmas, and the pinned literal; the whole
   sequence runs sequentially and on a 2-domain pool, each from a cold
   library. *)
let warm_sequence =
  let paper = Variation.paper_sigmas in
  let inter = Variation.inter_only paper in
  [
    ("s838", "paper, cold", paper, "0b877969e7dbce83af1c6d38e3312d4e");
    ("s838", "paper, warm", paper, "0b877969e7dbce83af1c6d38e3312d4e");
    ("s838", "inter-only", inter, "76c8b45291e2bb0dd763184bab6dcccb");
    ("s838", "paper again", paper, "0b877969e7dbce83af1c6d38e3312d4e");
    ("s1196", "paper, shared classes", paper,
     "e1d4430454df1cb8e107c52890bc833f");
  ]

let test_warm_library_sigma () =
  let nls =
    List.map (fun l -> (l, (Suite.find l).Suite.build ())) [ "s838"; "s1196" ]
  in
  let fresh =
    List.map
      (fun (label, _, sigmas, _) ->
        ((label, sigmas),
         lazy (sigma_digest_on ~sigmas (fresh_sigma_lib ()) (List.assoc label nls))))
      warm_sequence
  in
  let run ?pool lanes =
    let lib = fresh_sigma_lib () in
    List.iter
      (fun (label, step, sigmas, expected) ->
        let d = sigma_digest_on ?pool ~sigmas lib (List.assoc label nls) in
        let what = Printf.sprintf "%s %s (%s)" label step lanes in
        Alcotest.(check string) (what ^ " = fresh library")
          (Lazy.force (List.assoc (label, sigmas) fresh)) d;
        Alcotest.(check string) (what ^ " pinned") expected d)
      warm_sequence
  in
  run "sequential";
  Pool.with_pool ~jobs:2 (fun pool -> run ~pool "2 domains")

(* A dual-Vth session: the slack assignment's high-Vth gates take their
   entries from a +80 mV library, so their response classes come from
   another library than the session's base. Analyzed twice, then again
   under inter-only sigmas. *)
let test_dual_vth_sigma_bits () =
  let lib = fresh_sigma_lib () in
  let hvt = fresh_sigma_lib ~device:(Dual_vth.high_vth_device Params.d25) () in
  let nl = (Suite.find "s838").Suite.build () in
  let s = Incremental.create lib nl (fixed_vector nl 7) in
  let assignment = Dual_vth.slack_assignment ~critical_margin:0 nl in
  let edits = ref [] in
  Array.iteri
    (fun g high -> if high then edits := Edit.Relib (g, hvt) :: !edits)
    assignment;
  Incremental.apply_batch s (List.rev !edits);
  let digest sigmas =
    digest_floats (fun put -> emit_sigma put (Incremental.sigma ~sigmas s))
  in
  let paper = Variation.paper_sigmas in
  let expected = "1bae4700bc49a4494720f5878aaeae11" in
  Alcotest.(check string) "s838 dual-Vth session" expected (digest paper);
  Alcotest.(check string) "the same session again" expected (digest paper);
  Alcotest.(check string) "under inter-only sigmas" "fa2ee97e38f04a633e652e4eacd8f8be"
    (digest (Variation.inter_only paper))

(* A Relib session analyzed before any refresh: its per-gate state carries
   the propagation's float drift and entries of two libraries, so the
   analysis classes gates whose entries came from either. *)
let test_relib_session_sigma_bits () =
  let lib = fresh_sigma_lib () in
  let hvt = fresh_sigma_lib ~device:(Params.with_vth_shift Params.d25 0.08) () in
  let nl = (Suite.find "s1196").Suite.build () in
  let s = Incremental.create lib nl (fixed_vector nl 9) in
  let rng = Rng.create 29 in
  List.iter
    (fun g -> Incremental.apply s (Edit.Relib (g, hvt)))
    [ 0; 7; 8; 30; 31; 32; 100 ];
  for _ = 1 to 3 do
    Incremental.apply s (Edit.random_set_input rng (Incremental.current_netlist s))
  done;
  let digest sigmas =
    digest_floats (fun put -> emit_sigma put (Incremental.sigma ~sigmas s))
  in
  let paper = Variation.paper_sigmas in
  Alcotest.(check string) "s1196 Relib session, no refresh"
    "b32dca76b8027ffe7e62830e1f1f05f0" (digest paper);
  Alcotest.(check string) "under intra-only sigmas" "6572deeb71978536a084905498b15a3c"
    (digest (Variation.intra_only paper))

(* The sampler the closed form is checked against: every sample of a
   70-sample run (two full chunks and a six-sample tail) on s838,
   sequential and on a 2-domain pool. *)
let test_statistical_bits () =
  let nl = (Suite.find "s838").Suite.build () in
  let digest ?pool () =
    let r =
      Statistical.run ?pool ~n_samples:70 ~seed:3
        ~sigmas:Variation.paper_sigmas (Lazy.force sigma_lib) nl
        (fixed_vector nl 13)
    in
    digest_floats (fun put ->
        Array.iter
          (fun (s : Statistical.sample_totals) ->
            emit_components put s.Statistical.with_loading;
            emit_components put s.Statistical.no_loading)
          r.Statistical.samples;
        Array.iter put r.Statistical.total_with_loading;
        Array.iter put r.Statistical.total_no_loading)
  in
  let expected = "13f189f572d7855b34b5245c87fda4a9" in
  Alcotest.(check string) "s838 sequential" expected (digest ());
  Alcotest.(check string) "s838 on 2 domains" expected
    (Pool.with_pool ~jobs:2 (fun pool -> digest ~pool ()))

(* ---------------------------------------------------------- estimator bits *)

(* The estimator on a 21-point current axis, D25/300 K: the literals were
   pinned while 21 points was the default, so they show that neither the
   kernel nor [Characterize.apply] moved when the default became 7 points.
   The default-grid pins further down read the axis the benchmark and the
   CLI use. *)
let axis21 = { Characterize.max_current = 3.0e-6; points = 21 }
let est_lib = lazy (Library.create ~grid:axis21 ~device:Params.d25 ~temp:300.0 ())
let default_lib = lazy (Library.create ~device:Params.d25 ~temp:300.0 ())

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

(* The same circuits and vectors on the default grid. *)
let default_totals_pins =
  [
    ("s838", "660b68b331a1d6c9def950aadb514cff");
    ("s1196", "e693f8e213e178ff5a39d77ce1d54b3c");
    ("s1423", "72a0e72f734d7415b8f2d3701032d6d5");
    ("s5378", "08ccf9e1d7670d0865e4e051c8c28d12");
    ("s9234", "32fddca9e25748388cb20058e0ecab98");
    ("s13207", "323a0291707401af5c3cf2c495a4f2f9");
    ("alu88", "9a20120ae298e08f81d66d21f580a33c");
    ("mult88", "1a1982e57338bb2c27966b1a303a04bb");
    ("chain16k", "b2f87e24f9d0b77f778ad983c4884344");
  ]

let test_totals_bits lib label expected () =
  let nl = (List.assoc label corpus) () in
  let lib = Lazy.force lib in
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
    Library.create ~grid:axis21 ~device:(Params.with_vth_shift Params.d25 0.08)
      ~temp:300.0 ()
  in
  let nl = (Suite.find "s838").Suite.build () in
  let library_of_gate g = if g mod 3 = 0 then hvt else lib in
  let r = Estimator.estimate ~library_of_gate lib nl (fixed_vector nl 32) in
  Alcotest.(check string) "s838 with a +80 mV third" "324f97a91660cfbd9f1fe479e28d39a1"
    (digest_floats (fun put -> emit_estimate put r))

(* [estimate_totals] with a dual-Vth assignment: the slack assignment's
   high-Vth gates read a +80 mV library. Four vectors, each on a fresh
   scratch and then all on one reused scratch. *)
let test_dual_vth_totals_bits () =
  let lib = fresh_sigma_lib () in
  let hvt = fresh_sigma_lib ~device:(Dual_vth.high_vth_device Params.d25) () in
  let nl = (Suite.find "s838").Suite.build () in
  let high = Dual_vth.slack_assignment ~critical_margin:0 nl in
  let library_of_gate g = if high.(g) then hvt else lib in
  let digest ?scratch () =
    digest_floats (fun put ->
        List.iter
          (fun v ->
            let loaded, baseline =
              Estimator.estimate_totals ~library_of_gate ?scratch lib nl v
            in
            emit_components put loaded;
            emit_components put baseline)
          (est_vectors nl))
  in
  let expected = "1647935ee546cf6fbfb8c78ed53c8927" in
  Alcotest.(check string) "s838 dual-Vth, fresh scratch" expected (digest ());
  Alcotest.(check string) "s838 dual-Vth, one scratch" expected
    (digest ~scratch:(Estimator.scratch nl) ())

(* 70 samples: two full chunks and a six-sample tail. *)
let test_resample_bits lib expected () =
  let nl = (Suite.find "alu88").Suite.build () in
  let lib = Lazy.force lib in
  let digest ?pool () =
    let r = Vector_mc.resample ?pool ~seed:7 ~samples:70 lib nl in
    digest_floats (fun put ->
        Array.iter put r.Vector_mc.totals;
        Array.iter put r.Vector_mc.baselines;
        emit_components put r.Vector_mc.mean_components;
        put r.Vector_mc.mean_shift_percent)
  in
  Alcotest.(check string) "alu88 sequential" expected (digest ());
  Alcotest.(check string) "alu88 on 2 domains" expected
    (Pool.with_pool ~jobs:2 (fun pool -> digest ~pool ()))

(* The pinned σ, vector averages and resampling on a pool of one domain
   (the caller alone) and of two: the same literals as without a pool. *)
let test_pool_sizes_bits () =
  let s838 = (Suite.find "s838").Suite.build () in
  let alu88 = (Suite.find "alu88").Suite.build () in
  let lib = Lazy.force est_lib in
  let vs = List.init 33 (fun i -> fixed_vector alu88 (100 + i)) in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let lanes = Printf.sprintf " on %d domain(s)" jobs in
          Alcotest.(check string) ("s838 sigma" ^ lanes)
            (List.assoc "s838" sigma_pins) (sigma_digest ~pool s838);
          let loaded, baseline =
            Estimator.average_over_vectors ~pool lib alu88 vs
          in
          Alcotest.(check string) ("alu88 average" ^ lanes)
            "ceafcf249d957ddcd268912d88cbaa7e"
            (digest_floats (fun put ->
                 emit_components put loaded;
                 emit_components put baseline));
          let r = Vector_mc.resample ~pool ~seed:7 ~samples:70 lib alu88 in
          Alcotest.(check string) ("alu88 resample" ^ lanes)
            "1a14dd9dcb9def36f3cc817cd79ceea2"
            (digest_floats (fun put ->
                 Array.iter put r.Vector_mc.totals;
                 Array.iter put r.Vector_mc.baselines;
                 emit_components put r.Vector_mc.mean_components;
                 put r.Vector_mc.mean_shift_percent))))
    [ 1; 2 ]

(* ------------------------------------------------------------- work counts *)

(* A count above the pinned one means the solver evaluates devices whose
   bias did not move. Gate-only evaluations (a transistor read at its gate
   terminal alone runs only the model's tunneling half) count among the
   device evaluations, and on their own in [dc.gate_evals]: fewer than
   pinned means a transistor the block reads at its drain, source or bulk
   went unevaluated there. *)

let counts_of names f =
  let was = Tm.enabled () in
  Tm.set_enabled true;
  Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
  let count () =
    let snap = Tm.Snapshot.take () in
    List.map (Tm.Snapshot.counter_total snap) names
  in
  let before = count () in
  f ();
  List.map2 ( - ) (count ()) before

let evals_of f =
  match counts_of [ "dc.device_evals"; "dc.gate_evals" ] f with
  | [ evals; gate_only ] -> (evals, gate_only)
  | _ -> assert false

let testbench_evals kind bits =
  evals_of (fun () ->
      ignore
        (Testbench.solve
           (Testbench.compile ~device:Params.d25 ~temp:300.0
              (Testbench.make kind (Logic.vector_of_string bits)))))

let test_testbench_evals () =
  let check label (evals, gate_only) kind bits =
    let e, g = testbench_evals kind bits in
    Alcotest.(check int) (label ^ " device evaluations") evals e;
    Alcotest.(check int) (label ^ " gate-only evaluations") gate_only g
  in
  check "NAND2 testbench" (275, 88) (Gate.Nand 2) "10";
  check "XOR2 testbench" (680, 160) Gate.Xor "01";
  check "AOI22 testbench" (572, 176) Gate.Aoi22 "0110"

(* A compiled bench re-runs one kernel; each run reports its own work, the
   count of the same run on a fresh bench. *)
let test_reused_kernel_counts () =
  let tb = Testbench.make (Gate.Nand 2) (Logic.vector_of_string "10") in
  let injections = [ (tb.Testbench.pin_nets.(0), 1.0e-6) ] in
  let compile () = Testbench.compile ~device:Params.d25 ~temp:300.0 tb in
  let fresh =
    evals_of (fun () -> ignore (Testbench.solve ~injections (compile ())))
  in
  let bench = compile () in
  for run = 1 to 3 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "run %d on one kernel" run)
      fresh
      (evals_of (fun () -> ignore (Testbench.solve ~injections bench)))
  done

(* The block Newton runs in the kernel's scratch: a run on a compiled
   kernel allocates its result and nothing per sweep or block (13 minor
   words measured on s838, 12 sweeps over 390 blocks; the voltage vector
   is large enough to go to the major heap). *)
let test_run_allocation () =
  let nl = (Suite.find "s838").Suite.build () in
  let flat =
    Leakage_spice.Flatten.flatten ~device:Params.d25 ~temp:300.0 nl
      (Leakage_circuit.Simulate.run nl (fixed_vector nl 11))
  in
  let k = Dc.kernel flat in
  ignore (Dc.run k);
  let before = Gc.minor_words () in
  let r = Dc.run k in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d sweeps <= 32" words r.Dc.sweeps)
    true (words <= 32.0)

let test_s838_evals () =
  let nl = (Suite.find "s838").Suite.build () in
  let v = fixed_vector nl 11 in
  let evals, gate_only =
    evals_of (fun () ->
        ignore (Report.analyze ~device:Params.d25 ~temp:300.0 nl v))
  in
  Alcotest.(check int) "s838 solve" 82116 evals;
  Alcotest.(check int) "s838 gate-only" 29712 gate_only

(* One characterization is one solve per grid point, less the points that
   repeat the nominal solve: the zero node of every port's current axis
   (odd point counts). NAND2 has 3 ports: 2 + 3 * 7 solves less 3 at the
   default grid, 2 + 3 * 4 at 4 points (62 at 21 points). The threshold
   table waits for σ's first read, which adds 9 shifts less the zero one;
   a second read adds nothing. *)
let test_characterize_solves () =
  let work f =
    match counts_of [ "dc.solves"; "library.vth_tables" ] f with
    | [ solves; tables ] -> (solves, tables)
    | _ -> assert false
  in
  let characterize grid =
    Characterize.characterize ?grid ~device:Params.d25 ~temp:300.0
      (Gate.Nand 2) (Logic.vector_of_string "10")
  in
  let entry = ref None in
  Alcotest.(check (pair int int)) "NAND2 10 at the default grid" (20, 0)
    (work (fun () -> entry := Some (characterize None)));
  Alcotest.(check (pair int int)) "NAND2 10 at 4 points" (14, 0)
    (work (fun () ->
         ignore (characterize (Some { golden_grid with Characterize.points = 4 }))));
  let e = Option.get !entry in
  Alcotest.(check (pair int int)) "first sigma read" (8, 1)
    (work (fun () -> ignore (Characterize.vth_log_slope e)));
  Alcotest.(check (pair int int)) "second sigma read" (0, 0)
    (work (fun () -> ignore (Characterize.vth_log_factor e)))

(* A cold suite estimate reads no threshold table: 5770 solves for its 233
   entries, 8 per entry fewer than when characterization built the tables
   (7634). *)
let test_suite_solves () =
  let lib = Library.create ~device:Params.d25 ~temp:300.0 () in
  Alcotest.(check (list int)) "solves, misses, tables" [ 5770; 233; 0 ]
    (counts_of [ "dc.solves"; "library.misses"; "library.vth_tables" ]
       (fun () -> ignore (Suite.estimate_all lib)))

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
          Alcotest.test_case "no zero node at 4 points" `Quick
            test_characterize_no_zero_node;
          Alcotest.test_case "threshold tables on first read" `Quick
            test_vth_tables_on_first_read;
          Alcotest.test_case "two domains on a cold table" `Quick
            test_vth_table_race;
        ] );
      ( "loading-bits",
        [
          Alcotest.test_case "INV" `Quick
            (test_loading_bits Gate.Inv "a7dc249f3102b4488ca67360b787f28c");
          Alcotest.test_case "NAND2" `Quick
            (test_loading_bits (Gate.Nand 2) "59ceaaf5b3493c87ae081fbc192974cf");
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
        @ [
            Alcotest.test_case "incremental after refresh" `Quick
              test_incremental_sigma_bits;
            Alcotest.test_case "one library, changing sigmas" `Quick
              test_warm_library_sigma;
            Alcotest.test_case "dual-Vth session" `Quick
              test_dual_vth_sigma_bits;
            Alcotest.test_case "Monte-Carlo samples" `Quick
              test_statistical_bits;
            Alcotest.test_case "Relib session before refresh" `Quick
              test_relib_session_sigma_bits;
          ] );
      ( "estimator-bits",
        List.map
          (fun (label, expected) ->
            Alcotest.test_case ("totals " ^ label) `Quick
              (test_totals_bits est_lib label expected))
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
            Alcotest.test_case "resample alu88" `Quick
              (test_resample_bits est_lib "1a14dd9dcb9def36f3cc817cd79ceea2");
            Alcotest.test_case "dual-Vth totals" `Quick
              test_dual_vth_totals_bits;
            Alcotest.test_case "1- and 2-domain pools" `Quick
              test_pool_sizes_bits;
          ]
        @ List.map
            (fun (label, expected) ->
              Alcotest.test_case ("default-grid totals " ^ label) `Quick
                (test_totals_bits default_lib label expected))
            default_totals_pins
        @ [
            Alcotest.test_case "default-grid resample alu88" `Quick
              (test_resample_bits default_lib "8e9ac663e01e19296f7681be7f174388");
          ] );
      ( "solver-work",
        [
          Alcotest.test_case "testbench solves" `Quick test_testbench_evals;
          Alcotest.test_case "reused kernel" `Quick test_reused_kernel_counts;
          Alcotest.test_case "allocation-free run" `Quick test_run_allocation;
          Alcotest.test_case "s838 solve" `Quick test_s838_evals;
          Alcotest.test_case "characterize solves" `Quick
            test_characterize_solves;
          Alcotest.test_case "cold suite estimate" `Quick test_suite_solves;
        ] );
    ]
