(* Helpers shared by the gate executables in this directory. Every gate
   reports the same two line shapes: "ok: msg" on stdout for a passing
   check, and "GATE: FAIL msg" on stderr before exiting 1. *)

module Report = Leakage_spice.Leakage_report
module Telemetry = Leakage_telemetry.Telemetry

(* [fail gate fmt ...] prints "GATE: FAIL msg" to stderr and exits 1. *)
let fail gate fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: FAIL %s\n%!" gate msg;
      exit 1)
    fmt

(* [check gate cond fmt ...] prints "ok: msg" when [cond] holds; otherwise
   it fails the gate with msg. *)
let check gate cond fmt =
  Printf.ksprintf
    (fun msg ->
      if cond then Printf.printf "ok: %s\n%!" msg else fail gate "%s" msg)
    fmt

(* [counters_fired gate names] checks that every named telemetry counter
   was recorded at least once so far: the paths a gate exercises fired. *)
let counters_fired gate names =
  let snap = Telemetry.Snapshot.take () in
  List.iter
    (fun name ->
      let n = Telemetry.Snapshot.counter_total snap name in
      check gate (n >= 1) "counter %s = %d >= 1" name n)
    names

let eq_components (a : Report.components) (b : Report.components) =
  Float.equal a.Report.isub b.Report.isub
  && Float.equal a.Report.igate b.Report.igate
  && Float.equal a.Report.ibtbt b.Report.ibtbt
