(* Tests of the incremental re-estimation engine: cone-scoped delta updates
   must agree with a fresh Fig-13 estimate of the same state, edits must be
   exactly undoable, and the session-based optimizers must reproduce their
   full-estimate counterparts. *)

module Params = Leakage_device.Params
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Dual_vth = Leakage_incremental.Dual_vth
module Vector_mc = Leakage_incremental.Vector_mc
module Trees = Leakage_benchmarks.Trees
module Adders = Leakage_benchmarks.Adders
module Suite = Leakage_benchmarks.Suite
module Rng = Leakage_numeric.Rng

let device = Params.d25
let temp = 300.0

(* Characterization dominates runtime; share one coarse grid and bounded
   kind/strength/library palettes so the cache stays warm across cases. *)
let coarse_grid = { Characterize.max_current = 3.0e-6; points = 5 }
let lib = Library.create ~grid:coarse_grid ~device ~temp ()

let hvt_lib =
  Library.create ~grid:coarse_grid
    ~device:(Dual_vth.high_vth_device device)
    ~temp ~vdd:device.Params.vdd ()

let palette = [| 0.5; 1.0; 2.0 |]

let rel a b =
  if b = 0.0 then Float.abs a else Float.abs (a -. b) /. Float.abs b

(* Does the session agree with a fresh full estimate of its own state? *)
let matches_fresh ?(tol = 1e-9) session =
  let fresh =
    Estimator.estimate
      ~library_of_gate:(Incremental.library_of_gate session)
      lib
      (Incremental.current_netlist session)
      (Incremental.pattern session)
  in
  rel
    (Report.total (Incremental.totals session))
    (Report.total fresh.Estimator.totals)
  <= tol
  && rel
       (Report.total (Incremental.baseline_totals session))
       (Report.total fresh.Estimator.baseline_totals)
     <= tol

let check_fresh what session =
  Alcotest.(check bool) (what ^ " matches fresh estimate") true
    (matches_fresh session)

(* gates: 0 NAND2, 1 INV, 2 NOR2, 3 INV; inputs are nets 0 and 1 *)
let small_circuit () =
  let b = Netlist.Builder.create "small" in
  let a = Netlist.Builder.input b in
  let c = Netlist.Builder.input b in
  let n1 = Netlist.Builder.gate b (Gate.Nand 2) [| a; c |] in
  let n2 = Netlist.Builder.gate b Gate.Inv [| n1 |] in
  let n3 = Netlist.Builder.gate b (Gate.Nor 2) [| n1; c |] in
  let n4 = Netlist.Builder.gate b Gate.Inv [| n2 |] in
  Netlist.Builder.mark_output b n4;
  Netlist.Builder.mark_output b n3;
  Netlist.Builder.finish b

let adder_circuit width =
  let b = Netlist.Builder.create "radd" in
  let xs = Array.init width (fun _ -> Netlist.Builder.input b) in
  let ys = Array.init width (fun _ -> Netlist.Builder.input b) in
  let cin = Netlist.Builder.input b in
  let sums, cout = Adders.ripple_adder b xs ys cin in
  Array.iter (Netlist.Builder.mark_output b) sums;
  Netlist.Builder.mark_output b cout;
  Netlist.Builder.finish b

let session ?refresh_every nl bits =
  Incremental.create ?refresh_every lib nl (Logic.vector_of_string bits)

(* ----------------------------------------------------- single-edit kinds *)

let test_resize_matches () =
  let s = session (small_circuit ()) "01" in
  Incremental.apply s (Edit.Resize (0, 2.0));
  check_fresh "resize" s;
  Incremental.apply s (Edit.Resize (2, 0.5));
  check_fresh "second resize" s

let test_retype_matches () =
  let s = session (small_circuit ()) "01" in
  Incremental.apply s (Edit.Retype (0, Gate.Nor 2));
  check_fresh "retype NAND2->NOR2" s;
  Incremental.apply s (Edit.Retype (1, Gate.Buf));
  check_fresh "retype INV->BUF" s

let test_relib_matches () =
  let s = session (small_circuit ()) "10" in
  Incremental.apply s (Edit.Relib (1, hvt_lib));
  Incremental.apply s (Edit.Relib (3, hvt_lib));
  check_fresh "relib two gates" s;
  Alcotest.(check bool) "library reflected" true
    (Incremental.library_of_gate s 1 == hvt_lib
     && Incremental.library_of_gate s 0 == lib)

let test_set_input_matches () =
  let s = session (small_circuit ()) "01" in
  Incremental.apply s (Edit.Set_input (0, true));
  check_fresh "flip input 0" s;
  Alcotest.(check string) "pattern tracks the edit" "11"
    (Logic.vector_to_string (Incremental.pattern s))

let test_set_vector_matches () =
  let nl = adder_circuit 2 in
  let s = session nl "00000" in
  Incremental.set_vector s (Logic.vector_of_string "10110");
  check_fresh "set_vector" s;
  Alcotest.(check string) "pattern replaced" "10110"
    (Logic.vector_to_string (Incremental.pattern s));
  (* a session opened directly at the target vector agrees *)
  let direct = session nl "10110" in
  Alcotest.(check bool) "same totals as a direct session" true
    (rel
       (Report.total (Incremental.totals s))
       (Report.total (Incremental.totals direct))
     <= 1e-9)

(* --------------------------------------------------------- undo/rollback *)

let test_undo_restores_exactly () =
  let nl = small_circuit () in
  let s = session nl "01" in
  let initial = Report.total (Incremental.totals s) in
  let edits =
    [ Edit.Resize (0, 2.0); Edit.Retype (3, Gate.Buf);
      Edit.Set_input (0, true); Edit.Relib (2, hvt_lib) ]
  in
  List.iter (Incremental.apply s) edits;
  Alcotest.(check int) "four undoable edits" 4 (Incremental.undo_depth s);
  List.iter (fun _ -> Incremental.undo s) edits;
  Alcotest.(check int) "log drained" 0 (Incremental.undo_depth s);
  Alcotest.(check bool) "totals restored" true
    (rel (Report.total (Incremental.totals s)) initial <= 1e-12);
  Alcotest.(check string) "pattern restored" "01"
    (Logic.vector_to_string (Incremental.pattern s));
  let cur = Incremental.current_netlist s in
  for g = 0 to Netlist.gate_count nl - 1 do
    Alcotest.(check string) "kind restored"
      (Gate.name (Netlist.gate_kind nl g))
      (Gate.name (Netlist.gate_kind cur g));
    Alcotest.(check (float 0.0)) "strength restored"
      (Netlist.gate_strength nl g) (Netlist.gate_strength cur g)
  done

let test_batch_equals_sequential () =
  let nl = small_circuit () in
  let edits =
    [ Edit.Resize (0, 0.5); Edit.Set_input (1, false); Edit.Resize (1, 2.0) ]
  in
  let a = session nl "01" in
  Incremental.apply_batch a edits;
  let b = session nl "01" in
  List.iter (Incremental.apply b) edits;
  Alcotest.(check bool) "batch equals sequential" true
    (rel
       (Report.total (Incremental.totals a))
       (Report.total (Incremental.totals b))
     <= 1e-12);
  Alcotest.(check int) "batch logs each edit" 3 (Incremental.undo_depth a);
  (* undo through a batch reverts edit by edit, in reverse order *)
  Incremental.undo a;
  Incremental.undo a;
  Incremental.undo a;
  check_fresh "after undoing a batch" a

let test_checkpoint_rollback () =
  let nl = adder_circuit 2 in
  let s = session nl "01101" in
  Incremental.apply s (Edit.Resize (0, 2.0));
  Incremental.apply s (Edit.Resize (1, 0.5));
  let mid = Report.total (Incremental.totals s) in
  let cp = Incremental.checkpoint s in
  Incremental.apply s (Edit.Retype (2, Gate.Nor 2));
  Incremental.apply s (Edit.Set_input (0, false));
  Incremental.apply s (Edit.Relib (3, hvt_lib));
  Incremental.rollback s cp;
  Alcotest.(check int) "depth back at checkpoint" 2 (Incremental.undo_depth s);
  Alcotest.(check bool) "totals back at checkpoint" true
    (rel (Report.total (Incremental.totals s)) mid <= 1e-12);
  check_fresh "after rollback" s

let test_refresh_squashes_drift () =
  let nl = adder_circuit 2 in
  let s = session ~refresh_every:0 nl "11010" in
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    Incremental.apply s (Edit.random_resize ~strengths:palette rng nl)
  done;
  Alcotest.(check int) "no automatic refreshes" 0
    (Incremental.stats s).Incremental.refreshes;
  let before = Report.total (Incremental.totals s) in
  Incremental.refresh s;
  Alcotest.(check bool) "drift below 1e-9 relative" true
    (rel before (Report.total (Incremental.totals s)) <= 1e-9);
  check_fresh "after manual refresh" s

let test_stats_count_cones () =
  let s = session (small_circuit ()) "01" in
  Incremental.apply s (Edit.Resize (3, 2.0));
  let st = Incremental.stats s in
  Alcotest.(check int) "one edit" 1 st.Incremental.edits;
  Alcotest.(check bool) "cone smaller than circuit" true
    (st.Incremental.leakage_lookups < 4 && st.Incremental.leakage_lookups > 0)

(* ---------------------------------------------------------------- guards *)

let test_guards () =
  let nl = small_circuit () in
  let s = session nl "01" in
  Alcotest.check_raises "unknown gate"
    (Invalid_argument "Incremental: unknown gate id 99") (fun () ->
      Incremental.apply s (Edit.Resize (99, 1.0)));
  Alcotest.check_raises "non-positive strength"
    (Invalid_argument "Incremental: Resize strength must be positive")
    (fun () -> Incremental.apply s (Edit.Resize (0, 0.0)));
  Alcotest.check_raises "strength beyond the library's packable range"
    (Invalid_argument
       "Incremental: Resize strength 300 exceeds the library's \
        characterizable range (max 255.75)")
    (fun () -> Incremental.apply s (Edit.Resize (0, 300.0)));
  Alcotest.check_raises "arity-changing retype"
    (Invalid_argument "Incremental: Retype g0 to INV changes arity") (fun () ->
      Incremental.apply s (Edit.Retype (0, Gate.Inv)));
  Alcotest.check_raises "set_input off the inputs"
    (Invalid_argument "Incremental: Set_input on non-input net 2") (fun () ->
      Incremental.apply s (Edit.Set_input (2, true)));
  let hot = Library.create ~grid:coarse_grid ~device ~temp:350.0 () in
  Alcotest.check_raises "off-corner relib"
    (Invalid_argument
       "Incremental: Relib library must share temperature and supply with \
        the session") (fun () -> Incremental.apply s (Edit.Relib (0, hot)));
  Alcotest.check_raises "undo on empty log"
    (Invalid_argument "Incremental.undo: empty undo log") (fun () ->
      Incremental.undo s);
  Incremental.apply s (Edit.Resize (0, 2.0));
  let cp = Incremental.checkpoint s in
  Incremental.undo s;
  Alcotest.check_raises "rollback past an undone checkpoint"
    (Invalid_argument "Incremental.rollback: checkpoint already undone past")
    (fun () -> Incremental.rollback s cp)

(* -------------------------------------------- session-based optimizers *)

let test_vector_mc_resample () =
  let nl = Trees.parity ~width:4 () in
  let r = Vector_mc.resample ~seed:3 ~samples:20 lib nl in
  Alcotest.(check int) "sample count" 20 r.Vector_mc.summary.Leakage_numeric.Stats.n;
  Alcotest.(check bool) "mean components consistent with totals" true
    (rel
       (Report.total r.Vector_mc.mean_components)
       (Leakage_numeric.Stats.mean r.Vector_mc.totals)
     <= 1e-9);
  Alcotest.check_raises "samples guard"
    (Invalid_argument "Vector_mc.resample: samples must be positive")
    (fun () -> ignore (Vector_mc.resample ~samples:0 lib nl))

(* ------------------------------------------------------- differential *)

(* The shared replay harness cross-checks apply_batch against a per-edit
   walk and the from-scratch estimator on this file's reference circuits. *)
let test_differential_replay () =
  let nl = adder_circuit 2 in
  let rng = Rng.create 5 in
  let pattern = Logic.vector_of_string "01101" in
  let batches =
    [ Diff_harness.random_batch rng nl 8; Diff_harness.random_batch rng nl 3 ]
  in
  Alcotest.(check bool) "replay on the ripple adder" true
    (Diff_harness.check ~name:"adder" nl pattern batches);
  let small = small_circuit () in
  Alcotest.(check bool) "replay on the small circuit" true
    (Diff_harness.check ~name:"small" small
       (Logic.vector_of_string "01")
       [ Diff_harness.random_batch rng small 6 ])

(* ------------------------------------------------------- deep chains *)

(* Regression for the recursive cone walks that used to overflow the stack
   on chains a few tens of thousands of gates deep. On a pure inverter
   chain, retyping the head or flipping the chain's input flips every
   stage, so the one worklist drain must reach the last gate and still
   match a fresh estimate. *)
let deep_stages = 100_000

let check_deep_reach what s ~before =
  Alcotest.(check int) (what ^ ": one visit per stage") deep_stages
    ((Incremental.stats s).Incremental.logic_evals - before);
  let fresh, _ =
    Estimator.estimate_totals lib
      (Incremental.current_netlist s)
      (Incremental.pattern s)
  in
  Alcotest.(check bool) (what ^ ": matches estimate_totals") true
    (rel (Report.total (Incremental.totals s)) (Report.total fresh) <= 1e-9)

let test_deep_chain_retype () =
  let s = session (Trees.chain ~stages:deep_stages ()) "0" in
  let before = (Incremental.stats s).Incremental.logic_evals in
  Incremental.apply s (Edit.Retype (0, Gate.Buf));
  check_deep_reach "retype the head" s ~before

let test_deep_chain_input_flip () =
  let s = session (Trees.chain ~stages:deep_stages ()) "0" in
  let before = (Incremental.stats s).Incremental.logic_evals in
  Incremental.set_vector s (Logic.vector_of_string "1");
  check_deep_reach "flip the input" s ~before

(* ------------------------------------------------- dense vector moves *)

(* A move to an unrelated random vector flips about half the inputs; the
   one propagation must cost no more than a fresh estimate: at most one
   logic evaluation and one leakage lookup per gate, and a bounded number
   of minor words per gate. The library is warmed over the same vectors
   first, so characterization is not counted. *)
let test_dense_moves () =
  List.iter
    (fun name ->
      let nl = (Suite.find name).Suite.build () in
      let gates = Netlist.gate_count nl in
      let width = Array.length (Netlist.inputs nl) in
      let rng = Rng.create 19 in
      let vectors = List.init 17 (fun _ -> Logic.random_vector rng width) in
      List.iter (fun v -> ignore (Estimator.estimate_totals lib nl v)) vectors;
      let s = Incremental.create ~refresh_every:0 lib nl (List.hd vectors) in
      List.iter
        (fun v ->
          let st0 = Incremental.stats s in
          let w0 = Gc.minor_words () in
          Incremental.set_vector s v;
          let words = (Gc.minor_words () -. w0) /. float_of_int gates in
          let st1 = Incremental.stats s in
          let evals = st1.Incremental.logic_evals - st0.Incremental.logic_evals
          and lookups =
            st1.Incremental.leakage_lookups - st0.Incremental.leakage_lookups
          in
          if words > 100.0 || evals > gates || lookups > gates then
            Alcotest.failf
              "%s: a move took %.1f minor words per gate (<= 100), %d logic \
               evals and %d lookups (<= %d gates)"
              name words evals lookups gates)
        (List.tl vectors))
    [ "alu88"; "s838"; "mult88" ]

(* ------------------------------------------------------------ properties *)

let circuit_pool =
  [|
    (fun () -> Trees.parity ~width:4 ());
    (fun () -> Trees.decoder ~select_bits:2 ());
    (fun () -> Trees.mux_tree ~select_bits:2 ());
    (fun () -> adder_circuit 2);
  |]

let random_edit rng nl =
  match Rng.int rng 4 with
  | 0 | 1 -> Edit.random_resize ~strengths:palette rng nl
  | 2 -> Edit.random_set_input rng nl
  | _ ->
    let g = Rng.int rng (Netlist.gate_count nl) in
    (match Netlist.gate_arity nl g with
     | 1 -> Edit.Retype (g, if Rng.bool rng then Gate.Inv else Gate.Buf)
     | 2 -> Edit.Retype (g, if Rng.bool rng then Gate.Nand 2 else Gate.Nor 2)
     | _ -> Edit.Relib (g, if Rng.bool rng then hvt_lib else lib))

(* Random edit sequences on random netlists stay equivalent to a fresh
   estimate — including at intermediate points, after a batch, and after
   rolling everything back. *)
let prop_random_edits (pick, seed) =
  let nl = circuit_pool.(pick mod Array.length circuit_pool) () in
  let rng = Rng.create (seed + 1) in
  let width = Array.length (Netlist.inputs nl) in
  let s =
    Incremental.create ~refresh_every:5 lib nl (Logic.random_vector rng width)
  in
  let initial = Report.total (Incremental.totals s) in
  let cp0 = Incremental.checkpoint s in
  let ok = ref true in
  for i = 1 to 9 do
    Incremental.apply s (random_edit rng nl);
    if i mod 3 = 0 then ok := !ok && matches_fresh s
  done;
  Incremental.apply_batch s
    [ random_edit rng nl; random_edit rng nl; random_edit rng nl ];
  ok := !ok && matches_fresh s;
  Incremental.rollback s cp0;
  ok := !ok && matches_fresh s
  && rel (Report.total (Incremental.totals s)) initial <= 1e-9;
  !ok

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:8 ~name:"random edit sequences match fresh estimates"
         QCheck2.Gen.(tup2 (int_bound 1000) (int_bound 10_000))
         prop_random_edits);
  ]

let () =
  Alcotest.run "incremental"
    [
      ( "edits",
        [
          Alcotest.test_case "resize" `Quick test_resize_matches;
          Alcotest.test_case "retype" `Quick test_retype_matches;
          Alcotest.test_case "relib" `Quick test_relib_matches;
          Alcotest.test_case "set input" `Quick test_set_input_matches;
          Alcotest.test_case "set vector" `Quick test_set_vector_matches;
        ] );
      ( "undo",
        [
          Alcotest.test_case "undo restores exactly" `Quick
            test_undo_restores_exactly;
          Alcotest.test_case "batch equals sequential" `Quick
            test_batch_equals_sequential;
          Alcotest.test_case "checkpoint/rollback" `Quick
            test_checkpoint_rollback;
          Alcotest.test_case "refresh squashes drift" `Quick
            test_refresh_squashes_drift;
          Alcotest.test_case "stats count cones" `Quick test_stats_count_cones;
          Alcotest.test_case "guards" `Quick test_guards;
        ] );
      ( "optimizers",
        [
          Alcotest.test_case "vector MC resample" `Quick test_vector_mc_resample;
        ] );
      ( "differential",
        [
          Alcotest.test_case "replay harness" `Quick test_differential_replay;
        ] );
      ( "deep chain",
        [
          Alcotest.test_case "100k structural walk" `Quick
            test_deep_chain_retype;
          Alcotest.test_case "100k input flip" `Quick
            test_deep_chain_input_flip;
        ] );
      ( "dense moves",
        [
          Alcotest.test_case "set_vector costs at most one estimate" `Quick
            test_dense_moves;
        ] );
      ("properties", prop_tests);
    ]
