(* Helpers shared by the gate executables in this directory. *)

module Report = Leakage_spice.Leakage_report
module Json = Leakage_telemetry.Json
module Telemetry = Leakage_telemetry.Telemetry

(* [check gate cond fmt ...] prints "ok: msg" when [cond] holds; otherwise
   it prints "GATE: FAIL msg" to stderr and exits 1. *)
let check gate cond fmt =
  Printf.ksprintf
    (fun msg ->
      if cond then Printf.printf "ok: %s\n%!" msg
      else begin
        Printf.eprintf "%s: FAIL %s\n%!" gate msg;
        exit 1
      end)
    fmt

let eq_components (a : Report.components) (b : Report.components) =
  Float.equal a.Report.isub b.Report.isub
  && Float.equal a.Report.igate b.Report.igate
  && Float.equal a.Report.ibtbt b.Report.ibtbt

(* The -check FILE runner: parse the artifact at [path] and hand it to
   [validate]; a malformed artifact or a failed validation prints
   "PATH: INVALID: reason" to stderr and exits 1. *)
let check_file path validate =
  match validate (Json.read_file path) with
  | () -> ()
  | exception (Failure msg | Json.Error msg) ->
    Printf.eprintf "%s: INVALID: %s\n" path msg;
    exit 1

(* The "metrics" block of an artifact (the last member, so no trailing
   comma): each named counter's total so far. *)
let emit_metrics oc names =
  let p fmt = Printf.fprintf oc fmt in
  let snap = Telemetry.Snapshot.take () in
  p "  \"metrics\": {\n";
  List.iteri
    (fun i name ->
      p "    \"%s\": %d%s\n" name
        (Telemetry.Snapshot.counter_total snap name)
        (if i = List.length names - 1 then "" else ","))
    names;
  p "  }\n"

(* An artifact is only comparable with builds that agree on the fixed chunk
   widths its bit-identity claims depend on. *)
let chunk_const json key expected =
  let v = Json.int key json in
  if v <> expected then
    failwith
      (Printf.sprintf "%S is %d but this build uses %d — regenerate" key v
         expected)
