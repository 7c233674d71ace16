(* Quickstart: build a small circuit, estimate its leakage with the
   loading-aware Fig-13 estimator, and check the estimate against the full
   transistor-level DC solve.

   Run with: dune exec examples/quickstart.exe *)

module Params = Leakage_device.Params
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator

let na = Leakage_device.Physics.amps_to_nanoamps

(* A one-bit full adder out of library cells. *)
let full_adder () =
  let module B = Netlist.Builder in
  let b = B.create "full_adder" in
  let x = B.input ~name:"x" b in
  let y = B.input ~name:"y" b in
  let cin = B.input ~name:"cin" b in
  let t = B.gate ~name:"t" b Gate.Xor [| x; y |] in
  let sum = B.gate ~name:"sum" b Gate.Xor [| t; cin |] in
  let c1 = B.gate ~name:"c1" b (Gate.And 2) [| x; y |] in
  let c2 = B.gate ~name:"c2" b (Gate.And 2) [| t; cin |] in
  let cout = B.gate ~name:"cout" b (Gate.Or 2) [| c1; c2 |] in
  B.mark_output b sum;
  B.mark_output b cout;
  B.finish b

let () =
  let device = Params.d25 in
  let temp = 300.0 in
  let circuit = full_adder () in
  Format.printf "Circuit: %s@." (Netlist.name circuit);
  Format.printf "  %a@.@." Netlist.pp_stats (Netlist.stats circuit);

  (* A library bundles the loading-aware characterization tables for one
     (device, temperature) corner; entries are characterized on demand. *)
  let lib = Library.create ~device ~temp () in

  Format.printf "%-8s %12s %12s %12s %12s | %12s@." "vector" "Isub[nA]"
    "Igate[nA]" "Ibtbt[nA]" "total[nA]" "SPICE total";
  List.iter
    (fun pattern ->
      let v = Logic.vector_of_string pattern in
      let est = Estimator.estimate lib circuit v in
      let spice, _, _ = Report.analyze ~device ~temp circuit v in
      let t = est.Estimator.totals in
      Format.printf "%-8s %12.1f %12.1f %12.1f %12.1f | %12.1f@." pattern
        (na t.Report.isub) (na t.Report.igate) (na t.Report.ibtbt)
        (na (Report.total t))
        (na (Report.total spice.Report.totals)))
    [ "000"; "001"; "010"; "011"; "100"; "101"; "110"; "111" ];

  (* Loading effect: what the traditional sum-of-nominal-leakages model
     misses. *)
  let v = Logic.vector_of_string "101" in
  let est = Estimator.estimate lib circuit v in
  let with_loading = Report.total est.Estimator.totals in
  let without = Report.total est.Estimator.baseline_totals in
  Format.printf "@.Loading effect at vector 101: %+.2f%%@."
    ((with_loading -. without) /. without *. 100.0);
  Format.printf "  traditional (no loading): %.1f nA@." (na without);
  Format.printf "  loading-aware estimate:   %.1f nA@." (na with_loading);

  (* Per-gate view: which cells feel their neighbours the most. *)
  Format.printf "@.Per-gate loading shift at vector 101:@.";
  Array.iter
    (fun (g : Estimator.gate_estimate) ->
      let w = Report.total g.Estimator.with_loading in
      let n = Report.total g.Estimator.no_loading in
      Format.printf "  gate %d (%-5s) vector %s: %+6.2f%%  (%.1f nA)@."
        g.Estimator.gate
        (Gate.name (Netlist.gate_kind circuit g.Estimator.gate))
        (Logic.vector_to_string g.Estimator.vector)
        ((w -. n) /. n *. 100.0)
        (na w))
    est.Estimator.per_gate
