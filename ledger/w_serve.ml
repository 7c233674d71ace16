(* serve-mix: a `leakctl serve` daemon in a forked child (two executors, no
   pool workers: two compute domains on a 2-core host) and two tenants,
   each one client connection in a closed loop. Every cycle of a tenant's
   script opens each of its two circuits, applies edit batches (resizes to
   a fixed strength set, arity-keeping retypes, input flips) with a query
   after each, refreshes every third query, takes a checkpoint and rolls
   back to it, and closes. The four circuits outnumber the registry's two
   live sessions, and every re-open restores from the checkpoint written
   at close. Incremental/Cone and the server layers do the work; reads and
   writes interleave, so a change that taxes one for the other shows. *)

module Suite = Leakage_benchmarks.Suite
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Logic = Leakage_circuit.Logic
module Library = Leakage_core.Library
module Incremental = Leakage_incremental.Incremental
module Report = Leakage_spice.Leakage_report
module Params = Leakage_device.Params
module Physics = Leakage_device.Physics
module Rng = Leakage_numeric.Rng
module Telemetry = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace
module Log = Leakage_telemetry.Log
module Snapshot = Telemetry.Snapshot
module Wire = Leakage_server.Wire
module Protocol = Leakage_server.Protocol
module Server = Leakage_server.Server
module Client = Leakage_server.Client

let tenants = [| "t0"; "t1" |]
let circuits = [| [ "s838"; "alu88" ]; [ "s1196"; "mult88" ] |]
let max_sessions = 2
let batches = 12
let strengths = [| 1.0; 2.0; 4.0 |]
let pings = 200

(* Cycles per tenant in a traced run (and in its untraced baseline): a
   fixed count, so the daemon's work counts repeat exactly. *)
let traced_cycles = 8

type step =
  | Open of string
  | Apply of Protocol.edit list
  | Query of bool
  | Checkpoint
  | Rollback
  | Close

(* ------------------------------------------------------------- the script *)

let script ~seed client =
  let rng = Rng.create ((seed * 2) + client) in
  let pick n = Rng.int rng n in
  List.concat_map
    (fun label ->
      let nl = (Suite.find label).Suite.build () in
      let n = Netlist.gate_count nl in
      let inputs = Netlist.inputs nl in
      let arity2 =
        Array.of_list
          (List.filter (fun g -> Gate.arity (Netlist.gate_kind nl g) = 2) (List.init n Fun.id))
      in
      let batch () =
        let r1 = pick n in
        let s1 = strengths.(pick (Array.length strengths)) in
        let r2 = pick n in
        let s2 = strengths.(pick (Array.length strengths)) in
        let g = arity2.(pick (Array.length arity2)) in
        let kind = if pick 2 = 0 then "nand2" else "nor2" in
        let i = inputs.(pick (Array.length inputs)) in
        let v = pick 2 = 0 in
        [ Protocol.Resize (r1, s1); Protocol.Resize (r2, s2); Protocol.Retype (g, kind);
          Protocol.Set_input (i, v) ]
      in
      let steps = ref [ Open label ] in
      for b = 0 to batches - 1 do
        let edits = batch () in
        steps := Query (b mod 3 = 2) :: Apply edits :: !steps;
        if b = batches / 2 then steps := Checkpoint :: !steps;
        if b = batches - 2 then steps := Rollback :: !steps
      done;
      List.rev (Close :: !steps))
    circuits.(client)

(* --------------------------------------------------------------- clients *)

type conn = {
  client : Client.t;
  tenant : string;
  mutable session : int;
  mutable ckpt : int;
}

type op = {
  req : Protocol.request;
  resp : Protocol.response;
  latency : float;  (** s *)
}

let request conn = function
  | Open label ->
    Protocol.Open_session
      { tenant = conn.tenant; circuit = Protocol.Builtin label; device = "d25";
        temp_c = 25.0; pattern = "" }
  | Apply edits -> Protocol.Apply_batch { session = conn.session; edits }
  | Query refresh -> Protocol.Query { session = conn.session; refresh }
  | Checkpoint -> Protocol.Checkpoint { session = conn.session }
  | Rollback -> Protocol.Rollback { session = conn.session; checkpoint = conn.ckpt }
  | Close -> Protocol.Close { session = conn.session }

let exec conn step =
  Ctx.Probe.tick ();
  let req = request conn step in
  let t0 = Ctx.now () in
  let resp =
    (* a transport failure beyond the retry budget is a failed request *)
    try Client.rpc conn.client req
    with e ->
      Protocol.Error
        { code = Protocol.Internal; message = Printexc.to_string e; retry_after_ms = 0.0 }
  in
  let latency = Ctx.now () -. t0 in
  (match resp with
   | Protocol.Session_opened { session; _ } -> conn.session <- session
   | Protocol.Checkpointed { checkpoint; _ } -> conn.ckpt <- checkpoint
   | _ -> ());
  { req; resp; latency }

(* One cycle of the script: the ops in order and the cycle's wall time. *)
let cycle conn steps =
  let t0 = Ctx.now () in
  let ops = List.map (exec conn) steps in
  (ops, Ctx.now () -. t0)

let connect ~seed sock =
  Client.connect
    ~policy:
      { Client.retries = 3; backoff_ms = 20.0; max_backoff_ms = 500.0;
        timeout_ms = Some 30_000.0; jitter = 0.25 }
    ~seed [ Client.Unix_path sock ]

(* ---------------------------------------------------------------- daemon *)

type daemon = {
  pid : int;
  sock : string;
  trace_file : string;
  log_file : string;
  traced : bool;
  conns : conn array;
}

let spawn ~traced ~sock ~state_dir ~trace_file ~log_file =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
    try
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Telemetry.reset ();
      Telemetry.set_enabled traced;
      if traced then begin
        Trace.start ();
        Log.enable_file ~level:Log.Info log_file
      end
      else Trace.stop ();
      let server =
        Server.create ~executors:2 ~jobs:1 ~quota:8 ~max_sessions ~state_dir
          ~sample_interval:3600.0 ~socket:sock ()
      in
      Server.run server;
      if traced then Trace.write trace_file;
      Unix._exit 0
    with _ -> Unix._exit 1)
  | pid -> pid

let wait_ready pid sock =
  let deadline = Ctx.now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "serve daemon exited during start-up");
      if Ctx.now () > deadline then failwith "serve daemon did not come up";
      Unix.sleepf 0.01;
      go ()
  in
  go ()

(* Ask the daemon to drain and exit; SIGKILL it if it has not exited within
   [grace] seconds. Returns its peak RSS in kB, read before it exits. *)
let stop ?(grace = 20.0) d =
  let rss = Ctx.peak_rss_kb (string_of_int d.pid) in
  Array.iter (fun c -> Client.close c.client) d.conns;
  (try
     let c = connect ~seed:0 d.sock in
     Client.shutdown_server c;
     Client.close c
   with _ -> ());
  let deadline = Ctx.now () +. grace in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Ctx.now () < deadline ->
      Unix.sleepf 0.02;
      reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  rss

(* The daemon pids still running, for the exit handler. *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* ---------------------------------------------------------------- checks *)

let op_name = function
  | Protocol.Open_session _ -> "open"
  | Protocol.Apply_batch _ -> "apply"
  | Protocol.Query _ -> "query"
  | Protocol.Checkpoint _ -> "checkpoint"
  | Protocol.Rollback _ -> "rollback"
  | Protocol.Close _ -> "close"
  | r -> Protocol.request_name r

let reply_ok op =
  match (op.req, op.resp) with
  | Protocol.Open_session _, Protocol.Session_opened _
  | Protocol.Apply_batch _, Protocol.Applied _
  | Protocol.Query _, Protocol.Queried _
  | Protocol.Checkpoint _, Protocol.Checkpointed _
  | Protocol.Rollback _, Protocol.Rolled_back _
  | Protocol.Close _, Protocol.Closed _ -> true
  | _ -> false

let queried ops =
  List.filter_map
    (fun op ->
      match op.resp with
      | Protocol.Queried { loaded; baseline; _ } -> Some (loaded, baseline)
      | _ -> None)
    ops

let eq_components (a : Report.components) (b : Report.components) =
  Float.equal a.Report.isub b.Report.isub
  && Float.equal a.Report.igate b.Report.igate
  && Float.equal a.Report.ibtbt b.Report.ibtbt

let fold_replies h replies =
  List.fold_left
    (fun h ((l : Report.components), (b : Report.components)) ->
      Checksum.add_floats h
        [ l.Report.isub; l.Report.igate; l.Report.ibtbt; b.Report.isub; b.Report.igate;
          b.Report.ibtbt ])
    h replies

(* ------------------------------------------------------- direct replay *)

type replay = {
  replies : (Report.components * Report.components) list array;
      (** per tenant, a steady-state cycle's query replies *)
  apply_us : float list;
  refresh_us : float list;
  steady : Snapshot.t;  (** telemetry over the steady-state cycles *)
}

(* The scripts replayed on in-process Incremental sessions, mirroring the
   registry: a first open is cold on the all-zero pattern; a re-open
   restores the state saved at close. As on the daemon, two cycles per
   tenant warm every key; the third is the steady state every timed cycle
   repeats, and only that one is timed and compared. [before_steady] runs
   just before it. *)
let direct_replay ~before_steady scripts =
  let lib = Library.create ~device:Params.d25 ~temp:(Physics.celsius_to_kelvin 25.0) () in
  let apply_us = ref [] and refresh_us = ref [] in
  let saved = Array.map (fun _ -> Hashtbl.create 4) scripts in
  let run_cycle ~record c =
    let timed_into acc name f =
      let (), dt = Ctx.timed (fun () -> Ctx.span "incremental" name f) in
      if record then acc := (dt *. 1e6) :: !acc
    in
    let cur = ref None and ckpt = ref None and label = ref "" and out = ref [] in
    let session () = Option.get !cur in
    List.iter
      (function
        | Open l ->
          label := l;
          cur :=
            Some
              (Ctx.span "incremental" "Incremental.create" (fun () ->
                   match Hashtbl.find_opt saved.(c) l with
                   | Some (nl, pattern) -> Incremental.create lib nl pattern
                   | None ->
                     let nl = (Suite.find l).Suite.build () in
                     Incremental.create lib nl
                       (Array.make (Array.length (Netlist.inputs nl)) Logic.Zero)))
        | Apply edits ->
          let edits = List.map Protocol.edit_to_incremental edits in
          timed_into apply_us "Incremental.apply_batch" (fun () ->
              Incremental.apply_batch (session ()) edits)
        | Query refresh ->
          if refresh then
            timed_into refresh_us "Incremental.refresh" (fun () -> Incremental.refresh (session ()));
          out := (Incremental.totals (session ()), Incremental.baseline_totals (session ())) :: !out
        | Checkpoint -> ckpt := Some (Incremental.checkpoint (session ()))
        | Rollback -> Incremental.rollback (session ()) (Option.get !ckpt)
        | Close ->
          Hashtbl.replace saved.(c) !label
            (Incremental.current_netlist (session ()), Incremental.pattern (session ())))
      scripts.(c);
    List.rev !out
  in
  for _ = 1 to 2 do
    Array.iteri (fun c _ -> ignore (run_cycle ~record:false c)) scripts
  done;
  before_steady ();
  let before = Snapshot.take () in
  let replies = Array.mapi (fun c _ -> run_cycle ~record:true c) scripts in
  let steady = Snapshot.diff ~newer:(Snapshot.take ()) ~older:before in
  { replies; apply_us = !apply_us; refresh_us = !refresh_us; steady }

(* --------------------------------------------------- daemon-side traces *)

(* Per-request queue wait and execution time, joined by request id: the
   request log's [dur_us] (read to reply, what the connection saw) minus
   the executor's span for the same request. Only requests logged inside
   [t_lo, t_hi] (the timed window) count. *)
let queue_and_exec d ~t_lo ~t_hi =
  let spans =
    Spans.of_trace (Json.parse (Json.read_file d.trace_file))
    |> List.filter_map (fun (s : Spans.span) ->
           Option.map (fun rid -> (rid, (s.Spans.name, s.Spans.stop -. s.Spans.start)))
             (List.assoc_opt "rid" s.Spans.args))
  in
  let exec = Hashtbl.create 1024 in
  List.iter (fun (rid, v) -> Hashtbl.replace exec rid v) spans;
  let waits = ref [] and by_op = Hashtbl.create 8 in
  let ic = open_in d.log_file in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      try
        while true do
          let j = Json.parse (input_line ic) in
          let num k = Option.bind (Json.member k j) Json.to_num in
          let str k = Option.bind (Json.member k j) Json.to_str in
          match (str "event", str "rid", num "ts", num "dur_us") with
          | Some "request", Some rid, Some ts, Some dur when ts >= t_lo && ts <= t_hi -> (
            match Hashtbl.find_opt exec rid with
            | Some (name, span_us) ->
              waits := (dur -. span_us) :: !waits;
              Hashtbl.replace by_op name
                (span_us :: Option.value (Hashtbl.find_opt by_op name) ~default:[])
            | None -> ())
          | _ -> ()
        done
      with End_of_file -> ());
  (!waits, fun name -> Option.value (Hashtbl.find_opt by_op name) ~default:[])

(* In-process cost of the protocol codecs on the frames the timed window
   exchanged. *)
let codec_costs ops =
  let reps = 20 in
  let frames =
    List.concat_map
      (fun op ->
        [ (Protocol.encode_request op.req, true); (Protocol.encode_response op.resp, false) ])
      ops
  in
  let n = float_of_int (reps * List.length frames) in
  let (), t_enc =
    Ctx.timed (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun op ->
              ignore (Wire.frame_to_string (Protocol.encode_request op.req));
              ignore (Wire.frame_to_string (Protocol.encode_response op.resp)))
            ops
        done)
  in
  let bytes = List.map (fun (f, is_req) -> (Wire.frame_to_string f, is_req)) frames in
  let (), t_dec =
    Ctx.timed (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun (s, is_req) ->
              let f = Wire.frame_of_string s in
              if is_req then ignore (Protocol.decode_request f)
              else ignore (Protocol.decode_response f))
            bytes
        done)
  in
  let total = List.fold_left (fun a (s, _) -> a + String.length s) 0 bytes in
  (t_enc *. 1e6 /. n, t_dec *. 1e6 /. n, float_of_int total /. float_of_int (List.length bytes))

(* ------------------------------------------------------------------ run *)

let setup (ctx : Ctx.t) scripts i =
  let dir = Ctx.path ctx (Printf.sprintf "daemon%d" i) in
  Ctx.mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  (* the traced run's first daemon stays untraced: it gives the overhead
     baseline *)
  let traced = ctx.Ctx.traced && i > 0 in
  let trace_file = Filename.concat dir "trace.json" in
  let log_file = Filename.concat dir "requests.jsonl" in
  let pid =
    spawn ~traced ~sock ~state_dir:(Filename.concat dir "state") ~trace_file ~log_file
  in
  live := pid :: !live;
  wait_ready pid sock;
  let conns =
    Array.mapi
      (fun c tenant ->
        { client = connect ~seed:(ctx.Ctx.seed + c) sock; tenant; session = 0; ckpt = 0 })
      tenants
  in
  (* Two warm-up cycles per tenant: the first opens cold, the second starts
     from the state every later cycle starts from (edits set absolute
     values), so together they characterize every key the timed cycles
     touch. *)
  for _ = 1 to 2 do
    Array.iteri (fun c conn -> ignore (cycle conn scripts.(c))) conns
  done;
  { pid; sock; trace_file; log_file; traced; conns }

(* Both tenants run cycles concurrently until the deadline (or for a fixed
   count); returns each tenant's cycles and the window's wall time. *)
let timed_window (ctx : Ctx.t) d scripts ~cycles =
  let deadline = Ctx.now () +. ctx.Ctx.seconds in
  let loop c =
    let rec go k acc =
      let more =
        match cycles with Some n -> k < n | None -> k = 0 || Ctx.now () < deadline
      in
      if more then go (k + 1) (cycle d.conns.(c) scripts.(c) :: acc) else List.rev acc
    in
    go 0 []
  in
  let out = Array.make 2 [] in
  let t0 = Ctx.now () in
  let th = Thread.create (fun () -> out.(0) <- loop 0) () in
  out.(1) <- loop 1;
  Thread.join th;
  (out, t0, Ctx.now ())

let run (ctx : Ctx.t) =
  let scripts = Array.init 2 (fun c -> script ~seed:ctx.Ctx.seed c) in
  Fun.protect ~finally:kill_live @@ fun () ->
  let baseline_cycle = ref None in
  let release d =
    (* the traced run measures one untraced cycle per tenant on its first
       daemon, before tracing starts, as the overhead baseline *)
    if ctx.Ctx.traced && not d.traced then begin
      let out, _, _ = timed_window ctx d scripts ~cycles:(Some traced_cycles) in
      baseline_cycle := Some (Pctl.median (List.map snd (Array.to_list out |> List.concat)))
    end;
    ignore (stop d);
    live := List.filter (( <> ) d.pid) !live
  in
  let d = Ctx.setups ctx ~release (setup ctx scripts) in
  (* the expected replies; in a traced run its steady cycle is the first
     traced section *)
  let replay =
    direct_replay scripts ~before_steady:(fun () ->
        if ctx.Ctx.traced then Ctx.start_tracing ())
  in
  if ctx.Ctx.traced then begin
    let rtts =
      List.init pings (fun _ ->
          snd (Ctx.timed (fun () -> Client.ping d.conns.(0).client)) *. 1e6)
    in
    Ctx.set ctx "client.ping_rtt_us_p50" (Pctl.median rtts)
  end;
  let snap () = (Client.metrics_snapshot d.conns.(0).client).Client.snapshot in
  let before = if ctx.Ctx.traced then Some (snap ()) else None in
  let out, t_lo, t_hi =
    Ctx.span "server" "serve-mix.window" (fun () ->
        timed_window ctx d scripts ~cycles:(if ctx.Ctx.traced then Some traced_cycles else None))
  in
  let after = Option.map (fun _ -> snap ()) before in
  let cycles = Array.to_list out |> List.concat in
  let ops = List.concat_map fst cycles in
  ctx.Ctx.passes <- List.map snd cycles;
  ctx.Ctx.rss_kb <- Ctx.peak_rss_kb "self";
  ctx.Ctx.daemon_rss_kb <- stop d;
  live := [];
  (* every reply must be the expected kind; every cycle's query replies
     must equal the direct replay's, bit for bit *)
  List.iter
    (fun op ->
      Ctx.check ctx (reply_ok op) "%s reply: %s" (op_name op.req)
        (match op.resp with
         | Protocol.Error { message; _ } -> message
         | _ -> "unexpected response kind"))
    ops;
  Array.iteri
    (fun c cs ->
      List.iteri
        (fun k (ops, _) ->
          let got = queried ops and want = replay.replies.(c) in
          Ctx.check ctx
            (List.length got = List.length want
            && List.for_all2 (fun (l, b) (l', b') -> eq_components l l' && eq_components b b') got want)
            "tenant %d cycle %d: query replies differ from the direct replay" c k;
          List.iter
            (fun op ->
              match op.resp with
              | Protocol.Session_opened { status; _ } ->
                Ctx.check ctx (status = Protocol.Restored) "tenant %d re-open is %s, not restored" c
                  (Protocol.session_status_name status)
              | _ -> ())
            ops)
        cs)
    out;
  ctx.Ctx.checksum <- fold_replies (fold_replies Checksum.empty replay.replies.(0)) replay.replies.(1);
  (* readings *)
  let lat name = List.filter_map (fun op -> if op_name op.req = name then Some (op.latency *. 1000.0) else None) ops in
  let all = List.map (fun op -> op.latency *. 1000.0) ops in
  Ctx.set ctx "serve_rps" (float_of_int (List.length ops) /. (t_hi -. t_lo));
  Ctx.set ctx "apply_p50_ms" (Pctl.median (lat "apply"));
  Ctx.set ctx "query_p50_ms" (Pctl.median (lat "query"));
  Ctx.set ctx "serve_p99_ms" (Pctl.quantile all 0.99);
  (match Pctl.tail all with
   | Some t ->
     Ctx.note "serve-mix: %d requests, p50 %.3f ms, %s %.3f ms (%d samples)" t.Pctl.samples
       (Pctl.median all) (Pctl.tail_label t) t.Pctl.value t.Pctl.samples
   | None -> Ctx.note "serve-mix: %d requests (too few for a tail percentile)" (List.length all));
  match (before, after) with
  | Some before, Some after ->
    let diff = Snapshot.diff ~newer:after ~older:before in
    Ctx.record_counters ctx diff;
    (match !baseline_cycle with
     | Some b -> Ctx.set ctx "telemetry.overhead_pct" ((Pctl.median ctx.Ctx.passes -. b) /. b *. 100.0)
     | None -> ());
    let waits, exec = queue_and_exec d ~t_lo ~t_hi in
    if waits <> [] then begin
      Ctx.set ctx "scheduler.queue_wait_us_p50" (Pctl.median waits);
      Ctx.set ctx "scheduler.queue_wait_us_p99" (Pctl.quantile waits 0.99)
    end;
    let p50 l = if l = [] then 0.0 else Pctl.median l in
    Ctx.set ctx "serve.exec_us_p50.apply" (p50 (exec "apply"));
    Ctx.set ctx "serve.exec_us_p50.query" (p50 (exec "query"));
    Ctx.set ctx "registry.restore_ms_p50" (p50 (lat "open"));
    let enc, dec, bytes = codec_costs ops in
    Ctx.set ctx "protocol.encode_us" enc;
    Ctx.set ctx "protocol.decode_us" dec;
    Ctx.set ctx "protocol.bytes_per_frame" bytes;
    let st = Array.map (fun c -> Client.stats c.client) d.conns in
    Ctx.set ctx "client.retries" (float_of_int (Array.fold_left (fun a s -> a + s.Client.retries) 0 st));
    Ctx.set ctx "client.timeouts" (float_of_int (Array.fold_left (fun a s -> a + s.Client.timeouts) 0 st));
    let dr = replay.steady in
    Ctx.set ctx "incr.apply_us_per_batch" (Pctl.mean replay.apply_us);
    Ctx.set ctx "incr.refresh_us" (Pctl.mean replay.refresh_us);
    Ctx.set ctx "incr.batch_groups_per_batch" (Ctx.hist_mean dr "incr.batch_groups");
    Ctx.set ctx "incr.cone_pruned_gates" (Ctx.hist_mean dr "incr.cone_pruned_gates")
  | _ -> ()
