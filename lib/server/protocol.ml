module Report = Leakage_spice.Leakage_report
module Tm = Leakage_telemetry.Telemetry
module Gate = Leakage_circuit.Gate
module Edit = Leakage_incremental.Edit

type circuit_spec =
  | Builtin of string
  | Bench of { name : string; text : string }

type edit =
  | Resize of int * float
  | Retype of int * string
  | Set_input of int * bool

type error_code =
  | Bad_request
  | Unknown_session
  | Unknown_checkpoint
  | Over_quota
  | Shutting_down
  | Internal

let retriable = function
  | Over_quota | Shutting_down -> true
  | Bad_request | Unknown_session | Unknown_checkpoint | Internal -> false

let error_code_name = function
  | Bad_request -> "bad-request"
  | Unknown_session -> "unknown-session"
  | Unknown_checkpoint -> "unknown-checkpoint"
  | Over_quota -> "over-quota"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

type session_status = Cold | Warm | Restored

let session_status_name = function
  | Cold -> "cold"
  | Warm -> "warm"
  | Restored -> "restored"

type request =
  | Ping
  | Open_session of {
      tenant : string;
      circuit : circuit_spec;
      device : string;
      temp_c : float;
      pattern : string;
    }
  | Apply_batch of { session : int; edits : edit list }
  | Query of { session : int; refresh : bool }
  | Checkpoint of { session : int }
  | Rollback of { session : int; checkpoint : int }
  | Close of { session : int }
  | Metrics_snapshot
  | Shutdown

type response =
  | Pong
  | Session_opened of {
      session : int;
      digest : string;
      status : session_status;
      gates : int;
    }
  | Applied of { session : int; edits : int }
  | Queried of {
      session : int;
      loaded : Report.components;
      baseline : Report.components;
    }
  | Checkpointed of { session : int; checkpoint : int }
  | Rolled_back of { session : int }
  | Closed of { session : int }
  | Metrics_snapshot_report of {
      uptime_s : float;
      version : string;
      snapshot : Tm.Snapshot.t;
    }
  | Shutdown_ack
  | Error of { code : error_code; message : string; retry_after_ms : float }

(* ------------------------------------------------------------- opcodes *)

(* Requests occupy [0x01, 0x7f], responses [0x80, 0xff]; the split means a
   frame's opcode alone says which direction it belongs to. 0x08 and 0x88
   stay unassigned so a client of the removed JSON metrics op is rejected,
   never misread. *)
let op_ping = 0x01
let op_open = 0x02
let op_apply = 0x03
let op_query = 0x04
let op_checkpoint = 0x05
let op_rollback = 0x06
let op_close = 0x07
let op_shutdown = 0x09
let op_metrics_snapshot = 0x0a

let op_pong = 0x81
let op_session_opened = 0x82
let op_applied = 0x83
let op_queried = 0x84
let op_checkpointed = 0x85
let op_rolled_back = 0x86
let op_closed = 0x87
let op_shutdown_ack = 0x89
let op_metrics_snapshot_report = 0x8a
let op_error = 0xff

(* -------------------------------------------------------- field codecs *)

let put_circuit_spec b = function
  | Builtin label ->
    Wire.put_u8 b 0;
    Wire.put_string b label
  | Bench { name; text } ->
    Wire.put_u8 b 1;
    Wire.put_string b name;
    Wire.put_string b text

let get_circuit_spec r =
  match Wire.get_u8 r with
  | 0 -> Builtin (Wire.get_string r)
  | 1 ->
    let name = Wire.get_string r in
    let text = Wire.get_string r in
    Bench { name; text }
  | t -> raise (Wire.Bad_frame (Printf.sprintf "circuit-spec tag %d" t))

let put_edit b = function
  | Resize (gate, strength) ->
    Wire.put_u8 b 0;
    Wire.put_u32 b gate;
    Wire.put_f64 b strength
  | Retype (gate, kind) ->
    Wire.put_u8 b 1;
    Wire.put_u32 b gate;
    Wire.put_string b kind
  | Set_input (net, value) ->
    Wire.put_u8 b 2;
    Wire.put_u32 b net;
    Wire.put_bool b value

let get_edit r =
  match Wire.get_u8 r with
  | 0 ->
    let gate = Wire.get_u32 r in
    Resize (gate, Wire.get_f64 r)
  | 1 ->
    let gate = Wire.get_u32 r in
    Retype (gate, Wire.get_string r)
  | 2 ->
    let net = Wire.get_u32 r in
    Set_input (net, Wire.get_bool r)
  | t -> raise (Wire.Bad_frame (Printf.sprintf "edit tag %d" t))

let error_code_byte = function
  | Bad_request -> 0
  | Unknown_session -> 1
  | Unknown_checkpoint -> 2
  | Over_quota -> 3
  | Shutting_down -> 4
  | Internal -> 5

let error_code_of_byte = function
  | 0 -> Bad_request
  | 1 -> Unknown_session
  | 2 -> Unknown_checkpoint
  | 3 -> Over_quota
  | 4 -> Shutting_down
  | 5 -> Internal
  | b -> raise (Wire.Bad_frame (Printf.sprintf "error code %d" b))

let status_byte = function Cold -> 0 | Warm -> 1 | Restored -> 2

let status_of_byte = function
  | 0 -> Cold
  | 1 -> Warm
  | 2 -> Restored
  | b -> raise (Wire.Bad_frame (Printf.sprintf "session status %d" b))

let put_components b (c : Report.components) =
  Wire.put_f64 b c.Report.isub;
  Wire.put_f64 b c.Report.igate;
  Wire.put_f64 b c.Report.ibtbt

let get_components r =
  let isub = Wire.get_f64 r in
  let igate = Wire.get_f64 r in
  let ibtbt = Wire.get_f64 r in
  { Report.isub; igate; ibtbt }

(* Telemetry snapshots travel in full so clients (leakctl top) can diff
   and quantile them without a JSON parser. Counts ride as u64 — a
   long-lived daemon outgrows u32 counters. Buckets are sparse-encoded:
   most of the 64 power-of-two buckets of any real latency histogram are
   empty. *)

let put_list b xs put =
  Wire.put_u32 b (List.length xs);
  List.iter (put b) xs

let get_list r get = List.init (Wire.get_u32 r) (fun _ -> get r)

let put_snapshot b snap =
  Wire.put_f64 b (Tm.Snapshot.taken_at snap);
  put_list b (Tm.Snapshot.counter_entries snap) (fun b (name, total, per) ->
      Wire.put_string b name;
      Wire.put_u64 b (Int64.of_int total);
      put_list b per (fun b (d, v) ->
          Wire.put_u32 b d;
          Wire.put_u64 b (Int64.of_int v)));
  put_list b (Tm.Snapshot.gauge_entries snap) (fun b (name, v) ->
      Wire.put_string b name;
      Wire.put_f64 b v);
  put_list b (Tm.Snapshot.histogram_entries snap)
    (fun b (name, (h : Tm.Snapshot.hist)) ->
      Wire.put_string b name;
      Wire.put_u64 b (Int64.of_int h.count);
      Wire.put_f64 b h.sum;
      Wire.put_f64 b h.min;
      Wire.put_f64 b h.max;
      let nz = ref [] in
      Array.iteri (fun i n -> if n > 0 then nz := (i, n) :: !nz) h.buckets;
      put_list b (List.rev !nz) (fun b (i, n) ->
          Wire.put_u8 b i;
          Wire.put_u64 b (Int64.of_int n)));
  put_list b (Tm.Snapshot.meta_entries snap) (fun b (full, (base, labels)) ->
      Wire.put_string b full;
      Wire.put_string b base;
      put_list b labels (fun b (k, v) ->
          Wire.put_string b k;
          Wire.put_string b v))

let get_snapshot r =
  let taken_at = Wire.get_f64 r in
  let counters =
    get_list r (fun r ->
        let name = Wire.get_string r in
        let total = Int64.to_int (Wire.get_u64 r) in
        let per =
          get_list r (fun r ->
              let d = Wire.get_u32 r in
              (d, Int64.to_int (Wire.get_u64 r)))
        in
        (name, total, per))
  in
  let gauges =
    get_list r (fun r ->
        let name = Wire.get_string r in
        (name, Wire.get_f64 r))
  in
  let histograms =
    get_list r (fun r ->
        let name = Wire.get_string r in
        let count = Int64.to_int (Wire.get_u64 r) in
        let sum = Wire.get_f64 r in
        let min = Wire.get_f64 r in
        let max = Wire.get_f64 r in
        let buckets = Array.make Tm.Snapshot.n_buckets 0 in
        let nz =
          get_list r (fun r ->
              let i = Wire.get_u8 r in
              (i, Int64.to_int (Wire.get_u64 r)))
        in
        List.iter
          (fun (i, n) ->
            if i >= Tm.Snapshot.n_buckets then
              raise (Wire.Bad_frame (Printf.sprintf "bucket index %d" i));
            buckets.(i) <- n)
          nz;
        (name, { Tm.Snapshot.count; sum; min; max; buckets }))
  in
  let meta =
    get_list r (fun r ->
        let full = Wire.get_string r in
        let base = Wire.get_string r in
        let labels =
          get_list r (fun r ->
              let k = Wire.get_string r in
              (k, Wire.get_string r))
        in
        (full, (base, labels)))
  in
  Tm.Snapshot.make ~taken_at ~counters ~gauges ~histograms ~meta

(* ------------------------------------------------------------ requests *)

let frame op fill =
  let b = Buffer.create 64 in
  fill b;
  { Wire.op; payload = Buffer.contents b }

let encode_request = function
  | Ping -> frame op_ping (fun _ -> ())
  | Open_session { tenant; circuit; device; temp_c; pattern } ->
    frame op_open (fun b ->
        Wire.put_string b tenant;
        put_circuit_spec b circuit;
        Wire.put_string b device;
        Wire.put_f64 b temp_c;
        Wire.put_string b pattern)
  | Apply_batch { session; edits } ->
    frame op_apply (fun b ->
        Wire.put_u32 b session;
        Wire.put_u32 b (List.length edits);
        List.iter (put_edit b) edits)
  | Query { session; refresh } ->
    frame op_query (fun b ->
        Wire.put_u32 b session;
        Wire.put_bool b refresh)
  | Checkpoint { session } ->
    frame op_checkpoint (fun b -> Wire.put_u32 b session)
  | Rollback { session; checkpoint } ->
    frame op_rollback (fun b ->
        Wire.put_u32 b session;
        Wire.put_u32 b checkpoint)
  | Close { session } -> frame op_close (fun b -> Wire.put_u32 b session)
  | Metrics_snapshot -> frame op_metrics_snapshot (fun _ -> ())
  | Shutdown -> frame op_shutdown (fun _ -> ())

let decode_request { Wire.op; payload } =
  let r = Wire.reader payload in
  let req =
    if op = op_ping then Ping
    else if op = op_open then begin
      let tenant = Wire.get_string r in
      let circuit = get_circuit_spec r in
      let device = Wire.get_string r in
      let temp_c = Wire.get_f64 r in
      let pattern = Wire.get_string r in
      Open_session { tenant; circuit; device; temp_c; pattern }
    end
    else if op = op_apply then begin
      let session = Wire.get_u32 r in
      let n = Wire.get_u32 r in
      let edits = List.init n (fun _ -> get_edit r) in
      Apply_batch { session; edits }
    end
    else if op = op_query then begin
      let session = Wire.get_u32 r in
      Query { session; refresh = Wire.get_bool r }
    end
    else if op = op_checkpoint then Checkpoint { session = Wire.get_u32 r }
    else if op = op_rollback then begin
      let session = Wire.get_u32 r in
      Rollback { session; checkpoint = Wire.get_u32 r }
    end
    else if op = op_close then Close { session = Wire.get_u32 r }
    else if op = op_metrics_snapshot then Metrics_snapshot
    else if op = op_shutdown then Shutdown
    else raise (Wire.Bad_frame (Printf.sprintf "request opcode 0x%02x" op))
  in
  Wire.expect_end r;
  req

(* ----------------------------------------------------------- responses *)

let encode_response = function
  | Pong -> frame op_pong (fun _ -> ())
  | Session_opened { session; digest; status; gates } ->
    frame op_session_opened (fun b ->
        Wire.put_u32 b session;
        Wire.put_string b digest;
        Wire.put_u8 b (status_byte status);
        Wire.put_u32 b gates)
  | Applied { session; edits } ->
    frame op_applied (fun b ->
        Wire.put_u32 b session;
        Wire.put_u32 b edits)
  | Queried { session; loaded; baseline } ->
    frame op_queried (fun b ->
        Wire.put_u32 b session;
        put_components b loaded;
        put_components b baseline)
  | Checkpointed { session; checkpoint } ->
    frame op_checkpointed (fun b ->
        Wire.put_u32 b session;
        Wire.put_u32 b checkpoint)
  | Rolled_back { session } ->
    frame op_rolled_back (fun b -> Wire.put_u32 b session)
  | Closed { session } -> frame op_closed (fun b -> Wire.put_u32 b session)
  | Metrics_snapshot_report { uptime_s; version; snapshot } ->
    frame op_metrics_snapshot_report (fun b ->
        Wire.put_f64 b uptime_s;
        Wire.put_string b version;
        put_snapshot b snapshot)
  | Shutdown_ack -> frame op_shutdown_ack (fun _ -> ())
  | Error { code; message; retry_after_ms } ->
    frame op_error (fun b ->
        Wire.put_u8 b (error_code_byte code);
        Wire.put_bool b (retriable code);
        Wire.put_string b message;
        (* retry-after hint (milliseconds, 0 = none): admission control
           tells a backing-off client when its token bucket refills *)
        Wire.put_f64 b retry_after_ms)

let decode_response { Wire.op; payload } =
  let r = Wire.reader payload in
  let resp =
    if op = op_pong then Pong
    else if op = op_session_opened then begin
      let session = Wire.get_u32 r in
      let digest = Wire.get_string r in
      let status = status_of_byte (Wire.get_u8 r) in
      let gates = Wire.get_u32 r in
      Session_opened { session; digest; status; gates }
    end
    else if op = op_applied then begin
      let session = Wire.get_u32 r in
      let edits = Wire.get_u32 r in
      Applied { session; edits }
    end
    else if op = op_queried then begin
      let session = Wire.get_u32 r in
      let loaded = get_components r in
      let baseline = get_components r in
      Queried { session; loaded; baseline }
    end
    else if op = op_checkpointed then begin
      let session = Wire.get_u32 r in
      Checkpointed { session; checkpoint = Wire.get_u32 r }
    end
    else if op = op_rolled_back then Rolled_back { session = Wire.get_u32 r }
    else if op = op_closed then Closed { session = Wire.get_u32 r }
    else if op = op_metrics_snapshot_report then begin
      let uptime_s = Wire.get_f64 r in
      let version = Wire.get_string r in
      let snapshot = get_snapshot r in
      Metrics_snapshot_report { uptime_s; version; snapshot }
    end
    else if op = op_shutdown_ack then Shutdown_ack
    else if op = op_error then begin
      let code = error_code_of_byte (Wire.get_u8 r) in
      (* the explicit retriable bit lets clients on older code classify
         codes they do not know; decoders here re-derive it from the code *)
      let (_ : bool) = Wire.get_bool r in
      let message = Wire.get_string r in
      (* the retry-after field is absent in frames from older servers *)
      let retry_after_ms = if Wire.at_end r then 0.0 else Wire.get_f64 r in
      Error { code; message; retry_after_ms }
    end
    else raise (Wire.Bad_frame (Printf.sprintf "response opcode 0x%02x" op))
  in
  Wire.expect_end r;
  resp

(* -------------------------------------------------------------- bridge *)

let edit_to_incremental = function
  | Resize (gate, strength) -> Edit.Resize (gate, strength)
  | Retype (gate, kind) -> Edit.Retype (gate, Gate.of_name kind)
  | Set_input (net, value) -> Edit.Set_input (net, value)

let request_name = function
  | Ping -> "ping"
  | Open_session _ -> "open"
  | Apply_batch _ -> "apply"
  | Query _ -> "query"
  | Checkpoint _ -> "checkpoint"
  | Rollback _ -> "rollback"
  | Close _ -> "close"
  | Metrics_snapshot -> "metrics-snapshot"
  | Shutdown -> "shutdown"
