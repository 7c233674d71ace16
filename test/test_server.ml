(* Tests of the serve layer: wire framing codecs, protocol round trips,
   scheduler admission and ordering, registry restore-after-kill, and an
   in-process loopback client/server session checked bit-for-bit against a
   direct Incremental session and the full Estimator. *)

module Wire = Leakage_server.Wire
module Protocol = Leakage_server.Protocol
module Scheduler = Leakage_server.Scheduler
module Registry = Leakage_server.Registry
module Server = Leakage_server.Server
module Client = Leakage_server.Client
module Params = Leakage_device.Params
module Physics = Leakage_device.Physics
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Bench_format = Leakage_circuit.Bench_format
module Report = Leakage_spice.Leakage_report
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Telemetry = Leakage_telemetry.Telemetry
module Json = Leakage_telemetry.Json

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let components =
  Alcotest.testable
    (fun ppf (c : Report.components) ->
      Format.fprintf ppf "{isub=%h; igate=%h; ibtbt=%h}" c.Report.isub
        c.Report.igate c.Report.ibtbt)
    (fun a b ->
      Float.equal a.Report.isub b.Report.isub
      && Float.equal a.Report.igate b.Report.igate
      && Float.equal a.Report.ibtbt b.Report.ibtbt)

(* ----------------------------------------------------------------- wire *)

let gen_frame =
  QCheck2.Gen.(
    map2
      (fun op payload -> { Wire.op; payload })
      (int_bound 255)
      (string_size (int_bound 80)))

let prop_frame_roundtrip =
  qtest "frame encode/decode round trip" gen_frame (fun f ->
      Wire.frame_of_string (Wire.frame_to_string f) = f)

let prop_frame_truncation =
  qtest "every strict prefix is Truncated" gen_frame (fun f ->
      let s = Wire.frame_to_string f in
      (* check a handful of prefix lengths, including header cuts *)
      List.for_all
        (fun keep ->
          match Wire.frame_of_string (String.sub s 0 keep) with
          | _ -> false
          | exception Wire.Truncated -> true)
        [ 0; 3; Wire.header_size - 1; String.length s - 1 ])

let test_frame_bad_magic () =
  let s = Wire.frame_to_string { Wire.op = 1; payload = "x" } in
  let bad = "XKS1" ^ String.sub s 4 (String.length s - 4) in
  Alcotest.check_raises "magic" (Wire.Bad_frame "bad magic") (fun () ->
      ignore (Wire.frame_of_string bad))

let test_frame_bad_version () =
  let s = Bytes.of_string (Wire.frame_to_string { Wire.op = 1; payload = "" }) in
  Bytes.set s 4 '\x7f';
  Alcotest.check_raises "version" (Wire.Bad_frame "version 127") (fun () ->
      ignore (Wire.frame_of_string (Bytes.to_string s)))

let test_frame_oversize_declaration () =
  let b = Buffer.create 16 in
  Buffer.add_string b Wire.magic;
  Wire.put_u8 b Wire.version;
  Wire.put_u8 b 1;
  Wire.put_u32 b (Wire.max_payload + 1);
  Alcotest.(check bool) "oversize is Bad_frame, not an allocation" true
    (match Wire.frame_of_string (Buffer.contents b) with
     | _ -> false
     | exception Wire.Bad_frame _ -> true)

let test_frame_trailing_bytes () =
  let s = Wire.frame_to_string { Wire.op = 1; payload = "hi" } in
  Alcotest.(check bool) "trailing byte rejected" true
    (match Wire.frame_of_string (s ^ "!") with
     | _ -> false
     | exception Wire.Bad_frame _ -> true)

let prop_primitive_roundtrip =
  qtest "u32/u64/f64/bool/string codec round trip"
    QCheck2.Gen.(
      tup4 (int_bound 0xffff_ffff) (map Int64.of_int int)
        (map (fun i -> float_of_int i /. 16.0) int)
        (string_size (int_bound 40)))
    (fun (u, i64, f, s) ->
      let b = Buffer.create 64 in
      Wire.put_u32 b u;
      Wire.put_u64 b i64;
      Wire.put_f64 b f;
      Wire.put_bool b true;
      Wire.put_string b s;
      let r = Wire.reader (Buffer.contents b) in
      let u' = Wire.get_u32 r in
      let i64' = Wire.get_u64 r in
      let f' = Wire.get_f64 r in
      let t' = Wire.get_bool r in
      let s' = Wire.get_string r in
      Wire.expect_end r;
      u' = u && i64' = i64 && Float.equal f' f && t' && s' = s)

(* ------------------------------------------------------------- protocol *)

let gen_small_float =
  QCheck2.Gen.(map (fun i -> float_of_int i /. 64.0) (int_range (-100000) 100000))

let gen_edit =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun g f -> Protocol.Resize (g, abs_float f +. 0.125)) small_nat gen_small_float;
        map2 (fun g k -> Protocol.Retype (g, k)) small_nat (string_size (int_bound 8));
        map2 (fun n b -> Protocol.Set_input (n, b)) small_nat bool;
      ])

let gen_circuit =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Protocol.Builtin s) (string_size (int_bound 10));
        map2
          (fun name text -> Protocol.Bench { name; text })
          (string_size (int_bound 10))
          (string_size (int_bound 60));
      ])

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Ping;
        return Protocol.Metrics_snapshot;
        return Protocol.Shutdown;
        map3
          (fun tenant circuit (device, temp_c, pattern) ->
            Protocol.Open_session { tenant; circuit; device; temp_c; pattern })
          (string_size (int_bound 12))
          gen_circuit
          (tup3 (string_size (int_bound 8)) gen_small_float
             (string_size (int_bound 12)));
        map2
          (fun session edits -> Protocol.Apply_batch { session; edits })
          small_nat (list_size (int_bound 8) gen_edit);
        map2
          (fun session refresh -> Protocol.Query { session; refresh })
          small_nat bool;
        map (fun session -> Protocol.Checkpoint { session }) small_nat;
        map2
          (fun session checkpoint -> Protocol.Rollback { session; checkpoint })
          small_nat small_nat;
        map (fun session -> Protocol.Close { session }) small_nat;
      ])

let gen_components =
  QCheck2.Gen.(
    map3
      (fun isub igate ibtbt -> { Report.isub; igate; ibtbt })
      gen_small_float gen_small_float gen_small_float)

let gen_label = QCheck2.Gen.(string_size ~gen:printable (int_bound 8))

let gen_hist =
  QCheck2.Gen.(
    map3
      (fun pairs sum (mn, mx) ->
        let buckets = Array.make Telemetry.Snapshot.n_buckets 0 in
        List.iter (fun (b, n) -> buckets.(b) <- n + 1) pairs;
        let count = Array.fold_left ( + ) 0 buckets in
        { Telemetry.Snapshot.count; sum; min = mn; max = mx; buckets })
      (list_size (int_bound 5) (tup2 (int_bound 63) small_nat))
      gen_small_float
      (tup2 gen_small_float gen_small_float))

(* arbitrary but well-typed snapshots: the codec must round-trip whatever
   structure the merge produces, including sparse buckets and labeled-name
   metadata with hostile characters *)
let gen_snapshot =
  QCheck2.Gen.(
    map3
      (fun counters gauges (histograms, meta, taken_at) ->
        Telemetry.Snapshot.make ~taken_at ~counters ~gauges ~histograms ~meta)
      (list_size (int_bound 4)
         (tup3 gen_label small_nat
            (list_size (int_bound 3) (tup2 (int_bound 7) small_nat))))
      (list_size (int_bound 4) (tup2 gen_label gen_small_float))
      (tup3
         (list_size (int_bound 3) (tup2 gen_label gen_hist))
         (list_size (int_bound 2)
            (tup2 gen_label
               (tup2 gen_label
                  (list_size (int_bound 2) (tup2 gen_label gen_label)))))
         gen_small_float))

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Pong;
        return Protocol.Shutdown_ack;
        map3
          (fun session digest (status, gates) ->
            Protocol.Session_opened { session; digest; status; gates })
          small_nat
          (string_size (int_bound 32))
          (tup2
             (oneofl [ Protocol.Cold; Protocol.Warm; Protocol.Restored ])
             small_nat);
        map2
          (fun session edits -> Protocol.Applied { session; edits })
          small_nat small_nat;
        map3
          (fun session loaded baseline ->
            Protocol.Queried { session; loaded; baseline })
          small_nat gen_components gen_components;
        map2
          (fun session checkpoint ->
            Protocol.Checkpointed { session; checkpoint })
          small_nat small_nat;
        map (fun session -> Protocol.Rolled_back { session }) small_nat;
        map (fun session -> Protocol.Closed { session }) small_nat;
        map3
          (fun uptime_s version snapshot ->
            Protocol.Metrics_snapshot_report { uptime_s; version; snapshot })
          (map abs_float gen_small_float)
          (string_size (int_bound 12))
          gen_snapshot;
        map3
          (fun code message retry_after_ms ->
            Protocol.Error { code; message; retry_after_ms })
          (oneofl
             [
               Protocol.Bad_request; Protocol.Unknown_session;
               Protocol.Unknown_checkpoint; Protocol.Over_quota;
               Protocol.Shutting_down; Protocol.Internal;
             ])
          (string_size (int_bound 40))
          (map abs_float gen_small_float);
      ])

let prop_request_roundtrip =
  qtest "request encode/decode round trip" gen_request (fun r ->
      Protocol.decode_request (Protocol.encode_request r) = r)

let prop_response_roundtrip =
  qtest "response encode/decode round trip" gen_response (fun r ->
      Protocol.decode_response (Protocol.encode_response r) = r)

(* Mutated LKS1 encodings fail closed: a truncation, one to three
   overwritten bytes, or a splice of two encodings either decodes or raises
   [Wire.Truncated] / [Wire.Bad_frame], never anything else. Each mutation
   is applied to the payload (decoded under the original opcode) and to the
   whole frame (read back through [Wire.frame_of_string]). *)
type mutation =
  | Truncate of int  (** keep a strict prefix *)
  | Overwrite of (int * char) list
  | Splice of int * int  (** a prefix of one encoding, a suffix of another *)

let mutate m a b =
  let la = String.length a and lb = String.length b in
  match m with
  | Truncate k -> String.sub a 0 (if la = 0 then 0 else k mod la)
  | Overwrite pokes ->
    let s = Bytes.of_string a in
    if la > 0 then List.iter (fun (i, c) -> Bytes.set s (i mod la) c) pokes;
    Bytes.to_string s
  | Splice (i, j) ->
    let j = j mod (lb + 1) in
    String.sub a 0 (i mod (la + 1)) ^ String.sub b j (lb - j)

let gen_mutation =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> Truncate k) nat;
        map
          (fun pokes -> Overwrite pokes)
          (list_size (int_range 1 3) (pair nat char));
        map2 (fun i j -> Splice (i, j)) nat nat;
      ])

let fails_closed what decode (fa : Wire.frame) (fb : Wire.frame) m =
  let closed f =
    match f () with
    | _ | (exception (Wire.Truncated | Wire.Bad_frame _)) -> true
    | exception e ->
      QCheck2.Test.fail_reportf "mutated %s raised %s" what
        (Printexc.to_string e)
  in
  closed (fun () ->
      decode { fa with Wire.payload = mutate m fa.Wire.payload fb.Wire.payload })
  && closed (fun () ->
         decode
           (Wire.frame_of_string
              (mutate m (Wire.frame_to_string fa) (Wire.frame_to_string fb))))

let prop_mutated_payloads =
  qtest ~count:1000 "mutated frames fail closed"
    QCheck2.Gen.(
      tup3 (pair gen_request gen_request) (pair gen_response gen_response)
        gen_mutation)
    (fun ((qa, qb), (ra, rb), m) ->
      fails_closed "request" Protocol.decode_request
        (Protocol.encode_request qa) (Protocol.encode_request qb) m
      && fails_closed "response" Protocol.decode_response
           (Protocol.encode_response ra) (Protocol.encode_response rb) m)

let test_protocol_rejects_unknown_opcode () =
  let rejects decode op =
    match decode { Wire.op; payload = "" } with
    | _ -> false
    | exception Wire.Bad_frame _ -> true
  in
  List.iter
    (fun op ->
      Alcotest.(check bool) (Printf.sprintf "request opcode 0x%02x" op) true
        (rejects Protocol.decode_request op))
    [ 0x70; 0x08 ];
  Alcotest.(check bool) "response opcode 0x88" true
    (rejects Protocol.decode_response 0x88)

let test_protocol_rejects_trailing_payload () =
  let f = Protocol.encode_request Protocol.Ping in
  Alcotest.(check bool) "trailing payload bytes" true
    (match
       Protocol.decode_request { f with Wire.payload = f.Wire.payload ^ "x" }
     with
     | _ -> false
     | exception Wire.Bad_frame _ -> true)

let test_protocol_rejects_truncated_payload () =
  let f =
    Protocol.encode_request
      (Protocol.Open_session
         { tenant = "t"; circuit = Protocol.Builtin "s838"; device = "d25";
           temp_c = 25.0; pattern = "" })
  in
  let cut = { f with Wire.payload = String.sub f.Wire.payload 0 3 } in
  Alcotest.check_raises "payload cut mid-field" Wire.Truncated (fun () ->
      ignore (Protocol.decode_request cut))

(* ------------------------------------------------------------ scheduler *)

let admitted = function Scheduler.Admitted -> true | Scheduler.Rejected _ -> false

let test_scheduler_quota () =
  let s = Scheduler.create ~executors:1 ~quota:2 () in
  Alcotest.(check bool) "first" true (admitted (Scheduler.try_admit s "a"));
  Alcotest.(check bool) "second" true (admitted (Scheduler.try_admit s "a"));
  Alcotest.(check bool) "third is over quota" false
    (admitted (Scheduler.try_admit s "a"));
  Alcotest.(check bool) "other tenant unaffected" true
    (admitted (Scheduler.try_admit s "b"));
  Scheduler.release s "a";
  Alcotest.(check bool) "slot freed" true (admitted (Scheduler.try_admit s "a"));
  Scheduler.shutdown s

(* token buckets run on an explicit clock here, so the test is exact: burst
   at first contact, then one token per 1/rate seconds, capped at burst *)
let test_scheduler_token_bucket () =
  let s = Scheduler.create ~executors:1 ~quota:100 ~rate:10.0 ~burst:2.0 () in
  let t0 = 1000.0 in
  Alcotest.(check bool) "burst 1" true (admitted (Scheduler.try_admit ~now:t0 s "a"));
  Alcotest.(check bool) "burst 2" true (admitted (Scheduler.try_admit ~now:t0 s "a"));
  (match Scheduler.try_admit ~now:t0 s "a" with
   | Scheduler.Admitted -> Alcotest.fail "third admit should be rate-limited"
   | Scheduler.Rejected { retry_after_s; _ } ->
     Alcotest.(check bool) "eta ~ 1/rate" true
       (Float.abs (retry_after_s -. 0.1) < 1e-9));
  (* a different tenant has its own full bucket *)
  Alcotest.(check bool) "tenant b unaffected" true
    (admitted (Scheduler.try_admit ~now:t0 s "b"));
  (* after 0.1s one token refilled; after 10s the bucket is full again but
     capped at burst, not rate * 10 *)
  Alcotest.(check bool) "refilled one token" true
    (admitted (Scheduler.try_admit ~now:(t0 +. 0.1001) s "a"));
  Alcotest.(check bool) "spent again" false
    (admitted (Scheduler.try_admit ~now:(t0 +. 0.1001) s "a"));
  let levels = Scheduler.tenant_tokens ~now:(t0 +. 100.0) s in
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "level capped at burst" true (Float.abs (v -. 2.0) < 1e-9))
    levels;
  Alcotest.(check int) "both tenants reported" 2 (List.length levels);
  Scheduler.shutdown s

let test_scheduler_rate_limits_independent_of_inflight () =
  (* tokens are charged on admission and NOT refunded by release: the
     bucket meters arrival rate, the quota meters concurrency *)
  let s = Scheduler.create ~executors:1 ~quota:1 ~rate:1000.0 ~burst:5.0 () in
  let t0 = 0.0 in
  Alcotest.(check bool) "admit" true (admitted (Scheduler.try_admit ~now:t0 s "a"));
  Alcotest.(check bool) "second blocked by in-flight quota" false
    (admitted (Scheduler.try_admit ~now:t0 s "a"));
  Scheduler.release s "a";
  Alcotest.(check bool) "slot freed, tokens remain" true
    (admitted (Scheduler.try_admit ~now:t0 s "a"));
  let tokens = List.assoc "a" (Scheduler.tenant_tokens ~now:t0 s) in
  Alcotest.(check bool) "two tokens spent, none refunded" true
    (Float.abs (tokens -. 3.0) < 1e-9);
  Scheduler.shutdown s

let test_scheduler_serializes_one_key () =
  let s = Scheduler.create ~executors:3 ~quota:8 () in
  let log = ref [] in
  let m = Mutex.create () in
  for i = 0 to 199 do
    Scheduler.submit s ~key:"one-session" (fun () ->
        Mutex.lock m;
        log := i :: !log;
        Mutex.unlock m)
  done;
  Scheduler.shutdown s;
  Alcotest.(check (list int)) "jobs on one key ran in submission order"
    (List.init 200 Fun.id) (List.rev !log)

let test_scheduler_drains_on_shutdown () =
  let s = Scheduler.create ~executors:2 ~quota:8 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 50 do
    Scheduler.submit s ~key:"a" (fun () -> Atomic.incr hits);
    Scheduler.submit s ~key:"b" (fun () -> Atomic.incr hits)
  done;
  Scheduler.shutdown s;
  Alcotest.(check int) "every queued job ran" 100 (Atomic.get hits);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Scheduler.submit: shut down") (fun () ->
      Scheduler.submit s ~key:"a" (fun () -> ()))

(* ------------------------------------------------------------- registry *)

let bench_text =
  "INPUT(a)\nINPUT(b)\nINPUT(c)\n\
   g1 = NAND(a, b)\n\
   g2 = NOR(b, c)\n\
   g3 = XOR(g1, g2)\n\
   g4 = NAND(g3, a)\n\
   OUTPUT(g4)\n"

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "leak-%s-%d-%.0f" tag (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  let rec go path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> go (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then go dir

let spec () =
  {
    Registry.circuit = Protocol.Bench { name = "mini"; text = bench_text };
    device = Params.d25;
    temp_c = 25.0;
  }

let test_registry_restores_last_checkpoint () =
  let dir = fresh_dir "restore" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let r1 = Registry.create ~state_dir:dir () in
  let resolved = Registry.resolve r1 (spec ()) in
  let s, status = Registry.open_session r1 resolved ~pattern:"010" in
  Alcotest.(check string) "first open is cold" "cold"
    (Protocol.session_status_name status);
  Incremental.apply_batch s.Registry.incr [ Edit.Resize (0, 2.0) ];
  Registry.checkpoint_to_disk r1 s;
  Incremental.refresh s.Registry.incr;
  let want = Incremental.totals s.Registry.incr in
  (* more edits that never reach disk — the batch in flight when the
     daemon dies *)
  Incremental.apply_batch s.Registry.incr
    [ Edit.Resize (2, 3.0); Edit.Retype (1, Gate.Nand 2) ];
  (* no flush, no close: r1 is simply abandoned, as a kill would *)
  let r2 = Registry.create ~state_dir:dir () in
  let resolved2 = Registry.resolve r2 (spec ()) in
  let s2, status2 = Registry.open_session r2 resolved2 ~pattern:"" in
  Alcotest.(check string) "reopen restores from disk" "restored"
    (Protocol.session_status_name status2);
  Alcotest.(check string) "restored pattern comes from the checkpoint" "010"
    (Logic.vector_to_string (Incremental.pattern s2.Registry.incr));
  Incremental.refresh s2.Registry.incr;
  Alcotest.check components "state is exactly the last checkpoint" want
    (Incremental.totals s2.Registry.incr)

(* A checkpoint whose gate count is spliced to 2^32 - 1 claims far more
   gates than its bytes hold: the decoder refuses the count before sizing
   anything by it, so the open falls back to cold — counted as an opened
   session, not a restored one — and allocates what a cold open of the
   4-gate circuit does, well inside a fixed budget. *)
let test_registry_oversized_gate_count_opens_cold () =
  let dir = fresh_dir "count" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let r1 = Registry.create ~state_dir:dir () in
  let s, _ = Registry.open_session r1 (Registry.resolve r1 (spec ())) ~pattern:"010" in
  Registry.checkpoint_to_disk r1 s;
  let path =
    match
      List.filter
        (fun f -> Filename.check_suffix f ".ckpt")
        (Array.to_list (Sys.readdir dir))
    with
    | [ f ] -> Filename.concat dir f
    | _ -> Alcotest.fail "expected one checkpoint file"
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  (* the gate count follows the header fields and four strings *)
  let r = Wire.reader text in
  for _ = 1 to 5 do ignore (Wire.get_u8 r) done;
  let strings = ref (List.map String.length [ Wire.get_string r; Wire.get_string r ]) in
  ignore (Wire.get_f64 r);
  ignore (Wire.get_u8 r);
  strings :=
    !strings @ List.map String.length [ Wire.get_string r; Wire.get_string r; Wire.get_string r ];
  Alcotest.(check int) "four gates stored" 4 (Wire.get_u32 r);
  let at = 5 + 8 + 1 + List.fold_left (fun acc n -> acc + 4 + n) 0 !strings in
  let spliced = Bytes.of_string text in
  Bytes.fill spliced at 4 '\xff';
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc spliced);
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  let count name =
    Telemetry.Snapshot.counter_total (Telemetry.Snapshot.take ()) name
  in
  let opened = count "serve.sessions_opened"
  and restored = count "serve.sessions_restored" in
  let r2 = Registry.create ~state_dir:dir () in
  let resolved = Registry.resolve r2 (spec ()) in
  let b0 = Gc.allocated_bytes () in
  let _, status = Registry.open_session r2 resolved ~pattern:"" in
  let bytes = Gc.allocated_bytes () -. b0 in
  Alcotest.(check string) "opens cold" "cold" (Protocol.session_status_name status);
  Alcotest.(check int) "counted as opened" (opened + 1)
    (count "serve.sessions_opened");
  Alcotest.(check int) "not restored" restored (count "serve.sessions_restored");
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes allocated (budget 16 MiB)" bytes)
    true (bytes < 16.0 *. 1024.0 *. 1024.0)

(* A checkpoint that decodes but cannot be replayed onto the circuit: the
   one checkpoint a cold open on "010" writes, its stored vector and gates
   rewritten by [f]. Reopening it must open cold, counted as opened and
   not as restored, where the replay used to fail the open. *)
let check_unreplayable_opens_cold tag f =
  let dir = fresh_dir tag in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let r1 = Registry.create ~state_dir:dir () in
  let s, _ = Registry.open_session r1 (Registry.resolve r1 (spec ())) ~pattern:"010" in
  Registry.checkpoint_to_disk r1 s;
  let path =
    match
      List.filter
        (fun f -> Filename.check_suffix f ".ckpt")
        (Array.to_list (Sys.readdir dir))
    with
    | [ f ] -> Filename.concat dir f
    | _ -> Alcotest.fail "expected one checkpoint file"
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  (* header fields, then the circuit, then the vector and the gates *)
  let r = Wire.reader text in
  for _ = 1 to 5 do ignore (Wire.get_u8 r) done;
  ignore (Wire.get_string r);
  ignore (Wire.get_string r);
  ignore (Wire.get_f64 r);
  (match Wire.get_u8 r with
   | 0 -> ignore (Wire.get_string r)
   | _ -> ignore (Wire.get_string r); ignore (Wire.get_string r));
  let head = String.sub text 0 (String.length text - Wire.remaining r) in
  let pattern = Wire.get_string r in
  let gates =
    Array.init (Wire.get_u32 r) (fun _ ->
        let kind = Wire.get_string r in
        (kind, Wire.get_f64 r))
  in
  let pattern, gates = f pattern gates in
  let b = Buffer.create (String.length text) in
  Buffer.add_string b head;
  Wire.put_string b pattern;
  Wire.put_u32 b (Array.length gates);
  Array.iter
    (fun (kind, strength) ->
      Wire.put_string b kind;
      Wire.put_f64 b strength)
    gates;
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b);
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  let count name =
    Telemetry.Snapshot.counter_total (Telemetry.Snapshot.take ()) name
  in
  let opened = count "serve.sessions_opened"
  and restored = count "serve.sessions_restored" in
  let r2 = Registry.create ~state_dir:dir () in
  let _, status =
    Registry.open_session r2 (Registry.resolve r2 (spec ())) ~pattern:""
  in
  Alcotest.(check string) "opens cold" "cold" (Protocol.session_status_name status);
  Alcotest.(check int) "counted as opened" (opened + 1)
    (count "serve.sessions_opened");
  Alcotest.(check int) "not restored" restored (count "serve.sessions_restored")

(* Gate 0 is a NAND2; an inverter in its place changes its arity. *)
let test_registry_arity_change_opens_cold () =
  check_unreplayable_opens_cold "arity" (fun pattern gates ->
      gates.(0) <- (Gate.name Gate.Inv, snd gates.(0));
      (pattern, gates))

let test_registry_strength_out_of_range_opens_cold () =
  check_unreplayable_opens_cold "strength" (fun pattern gates ->
      gates.(1) <- (fst gates.(1), Library.max_strength +. 1.0);
      (pattern, gates))

(* The circuit has three inputs: two bits are too few, and 'x' is no
   logic value. *)
let test_registry_bad_pattern_opens_cold () =
  check_unreplayable_opens_cold "short" (fun _ gates -> ("01", gates));
  check_unreplayable_opens_cold "alphabet" (fun _ gates -> ("01x", gates))

let test_registry_evicts_idle_lru () =
  let r = Registry.create ~max_sessions:1 () in
  let resolved = Registry.resolve r (spec ()) in
  let s1, _ = Registry.open_session r resolved ~pattern:"000" in
  let other =
    { (spec ()) with
      Registry.circuit =
        Protocol.Bench { name = "mini2"; text = bench_text ^ "OUTPUT(g1)\n" } }
  in
  let resolved2 = Registry.resolve r other in
  Alcotest.(check bool) "different structure, different key" true
    (resolved.Registry.rkey <> resolved2.Registry.rkey);
  let _s2, _ = Registry.open_session r resolved2 ~pattern:"000" in
  Alcotest.(check int) "cap held by evicting the idle LRU" 1
    (Registry.live_count r);
  Alcotest.(check bool) "evicted session no longer found" true
    (Registry.find r s1.Registry.id = None)

(* ----------------------------------------------------- loopback session *)

let with_server ?state_dir f =
  let dir = fresh_dir "srv" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "leak.sock" in
  let server =
    Server.create ~executors:2 ~jobs:1 ~quota:4 ~max_sessions:4 ?state_dir
      ~socket:sock ()
  in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join th)
    (fun () -> f sock)

let oracle () =
  let nl = Bench_format.parse_string ~name:"mini" bench_text in
  let lib =
    Library.create ~device:Params.d25 ~temp:(Physics.celsius_to_kelvin 25.0) ()
  in
  Incremental.create lib nl (Logic.vector_of_string "010")

let test_loopback_session_matches_oracle () =
  with_server @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.ping c;
  let o =
    Client.open_session c
      ~circuit:(Protocol.Bench { name = "mini"; text = bench_text })
      ~pattern:"010" ()
  in
  Alcotest.(check string) "cold open" "cold"
    (Protocol.session_status_name o.Client.status);
  Alcotest.(check int) "gate count" 4 o.Client.gates;
  let direct = oracle () in
  (* batch 1: all three edit kinds through the wire *)
  let edits1 =
    [ Protocol.Resize (0, 2.0); Protocol.Retype (1, "nand2");
      Protocol.Set_input (0, true) ]
  in
  ignore (Client.apply_batch c ~session:o.Client.session edits1);
  Incremental.apply_batch direct (List.map Protocol.edit_to_incremental edits1);
  let loaded, baseline = Client.query c ~session:o.Client.session () in
  Alcotest.check components "loaded matches the direct session bit-for-bit"
    (Incremental.totals direct) loaded;
  Alcotest.check components "so does the baseline"
    (Incremental.baseline_totals direct) baseline;
  (* checkpoint, drift away, roll back *)
  let ck = Client.checkpoint c ~session:o.Client.session in
  let dck = Incremental.checkpoint direct in
  let edits2 = [ Protocol.Resize (2, 4.0); Protocol.Set_input (2, true) ] in
  ignore (Client.apply_batch c ~session:o.Client.session edits2);
  Incremental.apply_batch direct (List.map Protocol.edit_to_incremental edits2);
  let loaded2, _ = Client.query c ~session:o.Client.session () in
  Alcotest.check components "after the second batch"
    (Incremental.totals direct) loaded2;
  Client.rollback c ~session:o.Client.session ~checkpoint:ck;
  Incremental.rollback direct dck;
  let loaded3, _ = Client.query c ~session:o.Client.session ~refresh:true () in
  Incremental.refresh direct;
  Alcotest.check components "rolled-back refreshed state"
    (Incremental.totals direct) loaded3;
  (* the refreshed reply equals a from-scratch Estimator pass on the same
     state: the wire, registry and scheduler added nothing numeric *)
  let full =
    Estimator.estimate
      (Library.create ~device:Params.d25
         ~temp:(Physics.celsius_to_kelvin 25.0) ())
      (Incremental.current_netlist direct)
      (Incremental.pattern direct)
  in
  Alcotest.check components "matches the full Estimator oracle"
    full.Estimator.totals loaded3;
  (* a second client with byte-different .bench text of the same structure
     attaches warm to the same session *)
  let c2 = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  let o2 =
    Client.open_session c2
      ~circuit:
        (Protocol.Bench
           { name = "other-name"; text = "# comment\n" ^ bench_text })
      ()
  in
  Alcotest.(check string) "second open is warm" "warm"
    (Protocol.session_status_name o2.Client.status);
  Alcotest.(check int) "same session id" o.Client.session o2.Client.session;
  Alcotest.(check string) "same digest" o.Client.digest o2.Client.digest;
  Client.close_session c ~session:o.Client.session

(* every spelling of a corner names one session: the registry keys on the
   canonical device, not on the string the client sent *)
let test_loopback_corner_aliases_share_a_session () =
  with_server @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let open_as device =
    Client.open_session c ~device ~circuit:(Protocol.Builtin "s838") ()
  in
  let o1 = open_as "d25s" in
  Alcotest.(check string) "first open is cold" "cold"
    (Protocol.session_status_name o1.Client.status);
  let o2 = open_as "d25-s" in
  Alcotest.(check string) "alias attaches warm" "warm"
    (Protocol.session_status_name o2.Client.status);
  Alcotest.(check int) "same session id" o1.Client.session o2.Client.session;
  Alcotest.(check string) "same digest" o1.Client.digest o2.Client.digest

let test_loopback_errors () =
  (* the daemon enables telemetry itself; in-process we must, or the
     metrics reply has no serve counters to mention *)
  Leakage_telemetry.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Leakage_telemetry.Telemetry.set_enabled false)
  @@ fun () ->
  with_server @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let check_code label want f =
    match f () with
    | _ -> Alcotest.fail (label ^ ": expected a server error")
    | exception Client.Server_error (code, _) ->
      Alcotest.(check string) label want (Protocol.error_code_name code)
  in
  check_code "unknown session" "unknown-session" (fun () ->
      Client.query c ~session:999 ());
  check_code "unknown builtin circuit" "bad-request" (fun () ->
      Client.open_session c ~circuit:(Protocol.Builtin "nope") ());
  check_code "unparsable bench text" "bad-request" (fun () ->
      Client.open_session c
        ~circuit:(Protocol.Bench { name = "b"; text = "g1 = WAT(a)\n" })
        ());
  let o =
    Client.open_session c
      ~circuit:(Protocol.Bench { name = "mini"; text = bench_text })
      ()
  in
  check_code "unknown cell name in retype" "bad-request" (fun () ->
      Client.apply_batch c ~session:o.Client.session
        [ Protocol.Retype (0, "bogus9") ]);
  check_code "unknown checkpoint" "unknown-checkpoint" (fun () ->
      Client.rollback c ~session:o.Client.session ~checkpoint:42);
  (* the metrics snapshot carries the serve counters *)
  let snap = (Client.metrics_snapshot c).Client.snapshot in
  Alcotest.(check bool) "metrics count serve.requests" true
    (Telemetry.Snapshot.counter_total snap "serve.requests" > 0)

let test_loopback_rejects_garbage () =
  with_server @@ fun sock ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  let garbage = "this is not a LKS1 frame at all.." in
  ignore (Unix.write_substring fd garbage 0 (String.length garbage));
  match Protocol.decode_response (Wire.read_frame fd) with
  | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "expected a bad_request error frame"

(* ------------------------------------------------------------ transport *)

(* A signal landing during a blocked read must not kill the frame: a
   writer thread (with SIGALRM masked, so every tick lands on the reading
   main thread) dribbles one frame out across many interval-timer firings
   that interrupt the main thread's blocked reads with EINTR. *)
let test_read_frame_survives_eintr () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = { Wire.op = 7; payload = String.make 4096 'x' } in
  let bytes = Wire.frame_to_string frame in
  let hits = ref 0 in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr hits)) in
  let writer =
    Thread.create
      (fun () ->
        ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigalrm ]);
        let n = String.length bytes in
        let rec go off =
          if off < n then begin
            let len = Int.min 256 (n - off) in
            ignore (Unix.write_substring b bytes off len);
            Unix.sleepf 0.01;
            go (off + len)
          end
        in
        (try go 0 with Unix.Unix_error _ -> ());
        Unix.close b)
      ()
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.003; it_value = 0.003 });
  let got =
    Fun.protect
      ~finally:(fun () ->
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_interval = 0.0; it_value = 0.0 });
        Sys.set_signal Sys.sigalrm old;
        Thread.join writer;
        Unix.close a)
      (fun () -> Wire.read_frame a)
  in
  Alcotest.(check bool) "frame intact across EINTRs" true (got = frame);
  Alcotest.(check bool) "timer actually ticked during the read" true
    (!hits > 0)

(* A frame bigger than the socket buffer forces partial writes; the old
   single-shot write silently truncated here. *)
let test_write_frame_no_truncation () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  let frame =
    { Wire.op = 3; payload = String.init 300_000 (fun i -> Char.chr (i land 0xff)) }
  in
  let buf = Buffer.create 300_064 in
  let reader =
    Thread.create
      (fun () ->
        let tmp = Bytes.create 8192 in
        let rec go () =
          match Unix.read b tmp 0 8192 with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf tmp 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ())
      ()
  in
  Wire.write_frame a frame;
  Unix.close a;
  Thread.join reader;
  Unix.close b;
  Alcotest.(check bool) "every byte arrived, frame decodes" true
    (Wire.frame_of_string (Buffer.contents buf) = frame)

(* Same failure mode one layer up: an HTTP body larger than the socket
   buffer must come out whole. *)
let test_http_write_all_large_body () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  let body =
    String.concat "" (List.init 20_000 (fun i -> Printf.sprintf "line %d\n" i))
  in
  let buf = Buffer.create (String.length body) in
  let reader =
    Thread.create
      (fun () ->
        let tmp = Bytes.create 8192 in
        let rec go () =
          match Unix.read b tmp 0 8192 with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf tmp 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ())
      ()
  in
  Leakage_server.Http.write_all a body;
  Unix.close a;
  Thread.join reader;
  Unix.close b;
  Alcotest.(check int) "byte count" (String.length body)
    (Buffer.length buf);
  Alcotest.(check bool) "content identical" true (Buffer.contents buf = body)

(* /healthz echoes the daemon's version: a quote, a backslash, UTF-8 and a
   control byte in it must still give a body a strict parser accepts. *)
let test_healthz_body_is_json () =
  let dir = fresh_dir "healthz" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let version = "v\"1\\2 \xc3\xa9\001" in
  let server =
    Server.create ~executors:1 ~jobs:1 ~http_port:0 ~version
      ~socket:(Filename.concat dir "leak.sock") ()
  in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join th)
  @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET
       (Unix.inet_addr_loopback, Option.get (Server.http_port server)));
  Leakage_server.Http.write_all fd "GET /healthz HTTP/1.1\r\n\r\n";
  let ic = Unix.in_channel_of_descr fd in
  let reply = In_channel.input_all ic in
  close_in ic;
  let rec body_at i =
    if String.sub reply i 4 = "\r\n\r\n" then i + 4 else body_at (i + 1)
  in
  let b = body_at 0 in
  let j = Json.parse (String.sub reply b (String.length reply - b)) in
  Alcotest.(check string) "status" "ok" (Json.str "status" j);
  Alcotest.(check string) "version reads back exactly" version
    (Json.str "version" j)

(* Mutated requests to the HTTP sidecar fail closed: a truncation, one to
   three overwritten bytes, or a splice of two valid [/metrics] and
   [/healthz] requests, sent to [Http.handle] over a socketpair, gets a
   200, 400, 404 or 405 status line — or, with nothing sent or more than
   the 16 KiB head cap sent, a close without one. It never raises, and
   each request stays within a fixed budget: 8 bytes allocated per request
   byte plus 4 KiB (3.9 measured at worst; a head reader that rescans its
   buffer on every read allocates hundreds), and two seconds (both ends
   time out, so a hang fails too). The handler runs in a domain of its
   own, so no other thread's allocation is counted. *)
let http_requests =
  [|
    "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
    "GET /healthz HTTP/1.1\r\n\r\n";
    "GET /metrics?name=serve HTTP/1.0\r\nAccept: text/plain\r\n\
     User-Agent: probe\r\n\r\n";
    (* a head past the cap *)
    "GET /healthz HTTP/1.1\r\nX-Pad: " ^ String.make 17000 'a' ^ "\r\n\r\n";
  |]

let http_route = function
  | "/metrics" -> Some (Leakage_server.Http.response 200 "leak_up 1\n")
  | "/healthz" -> Some (Leakage_server.Http.response 200 "{}\n")
  | _ -> None

(* [input] through [Http.handle]: the reply, the bytes the handler
   allocated and its wall time. *)
let http_exchange input =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
  List.iter
    (fun fd ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0)
    [ a; b ];
  Leakage_server.Http.write_all a input;
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  let bytes, seconds =
    Domain.join
      (Domain.spawn (fun () ->
           let t0 = Unix.gettimeofday () and b0 = Gc.allocated_bytes () in
           Leakage_server.Http.handle b http_route;
           (Gc.allocated_bytes () -. b0, Unix.gettimeofday () -. t0)))
  in
  let reply = Buffer.create 256 and tmp = Bytes.create 4096 in
  (* The handler reads what it does not parse before closing, so the
     reply, if any, ends the stream: a reset fails the exchange. *)
  let rec drain () =
    match Unix.read a tmp 0 (Bytes.length tmp) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes reply tmp 0 n;
      drain ()
  in
  drain ();
  (Buffer.contents reply, bytes, seconds)

let prop_mutated_http_requests =
  let pick = QCheck2.Gen.int_bound (Array.length http_requests - 1) in
  qtest ~count:300 "mutated HTTP requests fail closed"
    QCheck2.Gen.(tup3 pick pick gen_mutation)
    (fun (i, j, m) ->
      let input = mutate m http_requests.(i) http_requests.(j) in
      let reply, bytes, seconds =
        match http_exchange input with
        | r -> r
        | exception e ->
          QCheck2.Test.fail_reportf "%d-byte request raised %s"
            (String.length input) (Printexc.to_string e)
      in
      let status =
        if String.length reply >= 12 && String.sub reply 0 9 = "HTTP/1.1 "
        then int_of_string_opt (String.sub reply 9 3)
        else None
      in
      let budget = (8.0 *. float_of_int (String.length input)) +. 4096.0 in
      (match status with
       | Some (200 | 400 | 404 | 405) -> ()
       | None
         when reply = ""
              && (input = "" || String.length input > 16 * 1024) -> ()
       | _ ->
         QCheck2.Test.fail_reportf "%d-byte request answered %S"
           (String.length input)
           (String.sub reply 0 (Stdlib.min 40 (String.length reply))));
      if bytes > budget then
        QCheck2.Test.fail_reportf
          "%d-byte request allocated %.0f bytes (budget %.0f)"
          (String.length input) bytes budget;
      if seconds > 2.0 then
        QCheck2.Test.fail_reportf "%d-byte request took %.2f s"
          (String.length input) seconds;
      true)

(* ------------------------------------------------------- client policy *)

(* a hand-rolled misbehaving server: [behavior] gets the accepted fd *)
let with_fake_server behavior f =
  let dir = fresh_dir "fake" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "fake.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 4;
  let th =
    Thread.create
      (fun () ->
        match Unix.accept lfd with
        | fd, _ ->
          (try behavior fd with _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      Thread.join th)
    (fun () -> f sock)

let expect_poisoned c =
  match Client.rpc c Protocol.Ping with
  | _ -> Alcotest.fail "second rpc on a broken stream must raise Poisoned"
  | exception Client.Poisoned msg ->
    Alcotest.(check bool) "error says the connection is poisoned" true
      (String.length msg >= 19
      && String.sub msg 0 19 = "connection poisoned")

let test_poisoned_after_timeout () =
  with_fake_server
    (fun fd ->
      ignore (Wire.read_frame fd);
      (* never answer; block until the client hangs up *)
      try ignore (Wire.read_frame fd) with _ -> ())
    (fun sock ->
      let policy =
        { Client.default_policy with timeout_ms = Some 80.0 }
      in
      let c = Client.connect_unix ~policy sock in
      (match Client.ping c with
       | () -> Alcotest.fail "expected a timeout"
       | exception Wire.Timeout -> ());
      Alcotest.(check int) "timeout counted" 1 (Client.stats c).Client.timeouts;
      expect_poisoned c;
      Client.close c)

let test_poisoned_after_bad_frame () =
  with_fake_server
    (fun fd ->
      ignore (Wire.read_frame fd);
      ignore (Unix.write_substring fd "XKS1\x01\x01\x00\x00\x00\x00" 0 10))
    (fun sock ->
      let c = Client.connect_unix sock in
      (match Client.ping c with
       | () -> Alcotest.fail "expected Bad_frame"
       | exception Wire.Bad_frame _ -> ());
      expect_poisoned c;
      Client.close c)

let test_poisoned_after_truncated_reply () =
  with_fake_server
    (fun fd ->
      ignore (Wire.read_frame fd);
      (* five bytes of a reply, then hang up mid-header *)
      let s = Wire.frame_to_string (Protocol.encode_response Protocol.Pong) in
      ignore (Unix.write_substring fd s 0 5))
    (fun sock ->
      let c = Client.connect_unix sock in
      (match Client.ping c with
       | () -> Alcotest.fail "expected Truncated"
       | exception (Wire.Truncated | End_of_file) -> ());
      expect_poisoned c;
      Client.close c)

let test_tcp_resolves_hostname () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let th =
    Thread.create
      (fun () ->
        match Unix.accept lfd with
        | fd, _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      Thread.join th)
    (fun () ->
      let c = Client.connect [ Client.Tcp ("localhost", port) ] in
      Client.close c)

let test_tcp_unresolvable_host_fails_cleanly () =
  match Client.connect [ Client.Tcp ("no-such-host.invalid", 1) ] with
  | _ -> Alcotest.fail "expected resolution to fail"
  | exception Failure msg ->
    Alcotest.(check bool) "clean failure names the host" true
      (String.length msg > 0)
  | exception Unix.Unix_error _ ->
    Alcotest.fail "unresolvable host must raise Failure, not a raw socket error"

(* ------------------------------------------------------- peer failover *)

let test_registry_adopts_peer_checkpoint () =
  let peer = fresh_dir "peer" in
  let sa = fresh_dir "state-a" in
  let sb = fresh_dir "state-b" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf peer;
      rm_rf sa;
      rm_rf sb)
  @@ fun () ->
  (* daemon A: edit, checkpoint — the bytes ship into the peer dir too *)
  let ra = Registry.create ~state_dir:sa ~peer_dir:peer () in
  let resolved = Registry.resolve ra (spec ()) in
  let s, _ = Registry.open_session ra resolved ~pattern:"010" in
  Incremental.apply_batch s.Registry.incr [ Edit.Resize (0, 2.0) ];
  Registry.checkpoint_to_disk ra s;
  Alcotest.(check int) "checkpoint shipped to the peer dir" 1
    (Array.length (Sys.readdir peer));
  (* stale copy in B's own state dir, dated well into the past: the
     fresher peer version must win *)
  let name = (Sys.readdir peer).(0) in
  let stale = Filename.concat sb name in
  let text =
    let ic = open_in_bin (Filename.concat peer name) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin stale in
  output_string oc text;
  close_out oc;
  Unix.utimes stale 1000.0 1000.0;
  (* A moves on and checkpoints again; then A is gone, as a kill would be *)
  Incremental.apply_batch s.Registry.incr
    [ Edit.Resize (2, 3.0); Edit.Set_input (1, true) ];
  Registry.checkpoint_to_disk ra s;
  Incremental.refresh s.Registry.incr;
  let want = Incremental.totals s.Registry.incr in
  (* daemon B: different state dir, same peer dir *)
  let rb = Registry.create ~state_dir:sb ~peer_dir:peer () in
  let resolved2 = Registry.resolve rb (spec ()) in
  let s2, status = Registry.open_session rb resolved2 ~pattern:"" in
  Alcotest.(check string) "open adopts the peer checkpoint" "restored"
    (Protocol.session_status_name status);
  Alcotest.(check string) "vector comes from A's state, not the stale copy"
    "010"
    (Logic.vector_to_string (Incremental.pattern s2.Registry.incr));
  Incremental.refresh s2.Registry.incr;
  Alcotest.check components "adopted state is A's newest checkpoint" want
    (Incremental.totals s2.Registry.incr)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          prop_frame_roundtrip;
          prop_frame_truncation;
          prop_primitive_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_frame_bad_magic;
          Alcotest.test_case "bad version" `Quick test_frame_bad_version;
          Alcotest.test_case "oversize declaration" `Quick
            test_frame_oversize_declaration;
          Alcotest.test_case "trailing bytes" `Quick test_frame_trailing_bytes;
        ] );
      ( "protocol",
        [
          prop_request_roundtrip;
          prop_response_roundtrip;
          prop_mutated_payloads;
          Alcotest.test_case "unknown opcode" `Quick
            test_protocol_rejects_unknown_opcode;
          Alcotest.test_case "trailing payload" `Quick
            test_protocol_rejects_trailing_payload;
          Alcotest.test_case "truncated payload" `Quick
            test_protocol_rejects_truncated_payload;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "tenant quota" `Quick test_scheduler_quota;
          Alcotest.test_case "token bucket" `Quick
            test_scheduler_token_bucket;
          Alcotest.test_case "bucket vs in-flight" `Quick
            test_scheduler_rate_limits_independent_of_inflight;
          Alcotest.test_case "per-key order" `Quick
            test_scheduler_serializes_one_key;
          Alcotest.test_case "drains on shutdown" `Quick
            test_scheduler_drains_on_shutdown;
        ] );
      ( "registry",
        [
          Alcotest.test_case "restore after kill" `Quick
            test_registry_restores_last_checkpoint;
          Alcotest.test_case "idle LRU eviction" `Quick
            test_registry_evicts_idle_lru;
          Alcotest.test_case "peer checkpoint adoption" `Quick
            test_registry_adopts_peer_checkpoint;
          Alcotest.test_case "oversized gate count opens cold" `Quick
            test_registry_oversized_gate_count_opens_cold;
          Alcotest.test_case "arity change opens cold" `Quick
            test_registry_arity_change_opens_cold;
          Alcotest.test_case "strength out of range opens cold" `Quick
            test_registry_strength_out_of_range_opens_cold;
          Alcotest.test_case "bad pattern opens cold" `Quick
            test_registry_bad_pattern_opens_cold;
        ] );
      ( "transport",
        [
          Alcotest.test_case "read_frame survives EINTR" `Quick
            test_read_frame_survives_eintr;
          Alcotest.test_case "write_frame partial writes" `Quick
            test_write_frame_no_truncation;
          Alcotest.test_case "http write_all large body" `Quick
            test_http_write_all_large_body;
          Alcotest.test_case "healthz body is JSON" `Quick
            test_healthz_body_is_json;
          prop_mutated_http_requests;
        ] );
      ( "client",
        [
          Alcotest.test_case "poisoned after timeout" `Quick
            test_poisoned_after_timeout;
          Alcotest.test_case "poisoned after bad frame" `Quick
            test_poisoned_after_bad_frame;
          Alcotest.test_case "poisoned after truncated reply" `Quick
            test_poisoned_after_truncated_reply;
          Alcotest.test_case "tcp hostname resolution" `Quick
            test_tcp_resolves_hostname;
          Alcotest.test_case "unresolvable host" `Quick
            test_tcp_unresolvable_host_fails_cleanly;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "session matches oracle" `Quick
            test_loopback_session_matches_oracle;
          Alcotest.test_case "corner aliases share a session" `Quick
            test_loopback_corner_aliases_share_a_session;
          Alcotest.test_case "error frames" `Quick test_loopback_errors;
          Alcotest.test_case "garbage rejected" `Quick
            test_loopback_rejects_garbage;
        ] );
    ]
