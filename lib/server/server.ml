module Incremental = Leakage_incremental.Incremental
module Pool = Leakage_parallel.Pool
module Tm = Leakage_telemetry.Telemetry
module Log = Leakage_telemetry.Log
module Trace = Leakage_telemetry.Trace
module Prometheus = Leakage_telemetry.Prometheus
module Json = Leakage_telemetry.Json
module Sampler = Leakage_telemetry.Sampler

let m_requests = Tm.counter "serve.requests"
let m_rejected = Tm.counter "serve.rejected"
let m_bad_frames = Tm.counter "serve.bad_frames"
let m_connections = Tm.counter "serve.connections"
let m_scrapes = Tm.counter "serve.http_scrapes"
let g_sessions_live = Tm.gauge "serve.sessions_live"
let g_queue_depth = Tm.gauge "serve.queue_depth"
let g_quota = Tm.gauge "serve.quota"
let g_pool_lanes = Tm.gauge "serve.pool_lanes"
let g_pool_busy = Tm.gauge "serve.pool_busy"

type t = {
  socket_path : string;
  port : int option;
  registry : Registry.t;
  scheduler : Scheduler.t;
  pool : Pool.t option;
  mutable listeners : Unix.file_descr list;
  mutable http_listener : Unix.file_descr option;
  stop_requested : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  is_running : bool Atomic.t;
  started_at : float;
  version : string;
  slow_us : float;
  sample_interval : float;
  conn_seq : int Atomic.t;
  mutable sampler : Sampler.t option;
  (* tenants whose in-flight gauge we have published, so one that goes
     idle is set back to 0 instead of freezing at its last level *)
  tenant_gauges : (string, Tm.gauge) Hashtbl.t;
  (* same idea for the token-bucket level gauges the select loop ticks *)
  token_gauges : (string, Tm.gauge) Hashtbl.t;
}

let create ?port ?http_port ?(executors = 2) ?jobs ?(quota = 8)
    ?(max_sessions = 8) ?state_dir ?peer_dir ?tenant_rate ?tenant_burst
    ?(version = "dev") ?(slow_us = infinity) ?(sample_interval = 1.0)
    ~socket () =
  let jobs =
    match jobs with Some j -> Pool.clamp_jobs j | None -> Pool.default_jobs ()
  in
  let pool = if jobs > 1 then Some (Pool.create ~jobs ()) else None in
  let registry = Registry.create ?state_dir ?peer_dir ~max_sessions () in
  let scheduler =
    Scheduler.create ~executors ~quota ?rate:tenant_rate ?burst:tenant_burst ()
  in
  if Sys.file_exists socket then Unix.unlink socket;
  let unix_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind unix_fd (Unix.ADDR_UNIX socket);
  Unix.listen unix_fd 64;
  let tcp_listener p =
    let tcp = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt tcp Unix.SO_REUSEADDR true;
    Unix.bind tcp (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
    Unix.listen tcp 64;
    tcp
  in
  let listeners =
    match port with
    | None -> [ unix_fd ]
    | Some p -> [ unix_fd; tcp_listener p ]
  in
  let http_listener = Option.map tcp_listener http_port in
  let stop_r, stop_w = Unix.pipe () in
  {
    socket_path = socket;
    port;
    registry;
    scheduler;
    pool;
    listeners;
    http_listener;
    stop_requested = Atomic.make false;
    stop_r;
    stop_w;
    is_running = Atomic.make false;
    started_at = Unix.gettimeofday ();
    version;
    slow_us;
    sample_interval;
    conn_seq = Atomic.make 0;
    sampler = None;
    tenant_gauges = Hashtbl.create 8;
    token_gauges = Hashtbl.create 8;
  }

let uptime_s t = Unix.gettimeofday () -. t.started_at

let http_port t =
  match t.http_listener with
  | None -> None
  | Some fd -> (
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> Some p
    | Unix.ADDR_UNIX _ | (exception Unix.Unix_error _) -> None)

let request_stop t =
  if not (Atomic.exchange t.stop_requested true) then
    (* one byte on the self-pipe wakes the select loop; both operations are
       async-signal-safe, so SIGINT/SIGTERM handlers may call this *)
    ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1)

let running t = Atomic.get t.is_running

let stopping t = Atomic.get t.stop_requested

(* ------------------------------------------------------------ mailbox *)

type mailbox = {
  m : Mutex.t;
  c : Condition.t;
  mutable value : Protocol.response option;
}

let mailbox () = { m = Mutex.create (); c = Condition.create (); value = None }

let mailbox_put mb v =
  Mutex.lock mb.m;
  mb.value <- Some v;
  Condition.signal mb.c;
  Mutex.unlock mb.m

let mailbox_wait mb =
  Mutex.lock mb.m;
  while mb.value = None do
    Condition.wait mb.c mb.m
  done;
  let v = Option.get mb.value in
  Mutex.unlock mb.m;
  v

(* ------------------------------------------------------------ handlers *)

let err code fmt =
  Printf.ksprintf
    (fun message -> Protocol.Error { code; message; retry_after_ms = 0.0 })
    fmt

(* Run [f] on the session's executor, serialized with every other request
   for that session, and hand the result back through a mailbox. *)
let on_session t ?rid ~op (session : Registry.session) f =
  let mb = mailbox () in
  Registry.begin_request t.registry session;
  let span_args =
    match rid with Some rid -> [ ("rid", rid) ] | None -> []
  in
  (try
     Scheduler.submit t.scheduler ?rid ~key:session.Registry.key (fun () ->
         let resp =
           try Trace.with_span ~cat:"serve" ~args:span_args op f
           with
           | Invalid_argument m -> err Protocol.Bad_request "%s" m
           | Failure m -> err Protocol.Internal "%s" m
         in
         Registry.end_request t.registry session;
         mailbox_put mb resp)
   with Invalid_argument _ ->
     Registry.end_request t.registry session;
     mailbox_put mb (err Protocol.Shutting_down "server is draining"));
  mailbox_wait mb

let with_admission t tenant k =
  if stopping t then err Protocol.Shutting_down "server is draining"
  else
    match Scheduler.try_admit t.scheduler tenant with
    | Scheduler.Rejected { retry_after_s; reason } ->
      Tm.incr m_rejected;
      Protocol.Error
        {
          code = Protocol.Over_quota;
          message = Printf.sprintf "tenant %s %s" tenant reason;
          retry_after_ms = retry_after_s *. 1000.0;
        }
    | Scheduler.Admitted ->
      Fun.protect ~finally:(fun () -> Scheduler.release t.scheduler tenant) k

let find_session t id k =
  match Registry.find t.registry id with
  | None -> err Protocol.Unknown_session "no live session %d" id
  | Some session -> k session

let handle_open t ?rid ~tenant ~circuit ~device ~temp_c ~pattern () =
  match Protocol.device_of_name device with
  | None -> err Protocol.Bad_request "unknown device corner %s" device
  | Some dev ->
    let spec =
      {
        Registry.circuit;
        device_name = String.lowercase_ascii device;
        device = dev;
        temp_c;
      }
    in
    (match Registry.resolve t.registry spec with
     | exception Leakage_circuit.Bench_format.Parse_error (line, msg) ->
       err Protocol.Bad_request "bench parse error, line %d: %s" line msg
     | exception Failure m -> err Protocol.Bad_request "%s" m
     | exception Invalid_argument m -> err Protocol.Bad_request "%s" m
     | resolved ->
       let mb = mailbox () in
       let span_args =
         match rid with Some rid -> [ ("rid", rid) ] | None -> []
       in
       (try
          Scheduler.submit t.scheduler ?rid ~key:resolved.Registry.rkey
            (fun () ->
              let resp =
                try
                  Trace.with_span ~cat:"serve" ~args:span_args "open"
                    (fun () ->
                      let session, status =
                        Registry.open_session ?pool:t.pool t.registry resolved
                          ~pattern
                      in
                      ignore tenant;
                      Protocol.Session_opened
                        {
                          session = session.Registry.id;
                          digest = session.Registry.digest;
                          status;
                          gates =
                            Leakage_circuit.Netlist.gate_count
                              resolved.Registry.netlist;
                        })
                with
                | Invalid_argument m -> err Protocol.Bad_request "%s" m
                | Failure m -> err Protocol.Internal "%s" m
              in
              mailbox_put mb resp)
        with Invalid_argument _ ->
          mailbox_put mb (err Protocol.Shutting_down "server is draining"));
       mailbox_wait mb)

let handle_apply t ?rid ~session_id ~edits () =
  match
    List.map Protocol.edit_to_incremental edits
  with
  | exception Invalid_argument m -> err Protocol.Bad_request "%s" m
  | incr_edits ->
    find_session t session_id @@ fun session ->
    on_session t ?rid ~op:"apply" session (fun () ->
        let before = (Incremental.stats session.Registry.incr).Incremental.batch_groups in
        Incremental.apply_batch ?pool:t.pool session.Registry.incr incr_edits;
        let after = (Incremental.stats session.Registry.incr).Incremental.batch_groups in
        Registry.checkpoint_to_disk t.registry session;
        Protocol.Applied
          {
            session = session_id;
            edits = List.length edits;
            groups = after - before;
          })

let handle_query t ?rid ~session_id ~refresh () =
  find_session t session_id @@ fun session ->
  on_session t ?rid ~op:"query" session (fun () ->
      if refresh then Incremental.refresh session.Registry.incr;
      Protocol.Queried
        {
          session = session_id;
          loaded = Incremental.totals session.Registry.incr;
          baseline = Incremental.baseline_totals session.Registry.incr;
        })

let handle_checkpoint t ?rid ~session_id () =
  find_session t session_id @@ fun session ->
  on_session t ?rid ~op:"checkpoint" session (fun () ->
      let id = session.Registry.next_checkpoint in
      session.Registry.next_checkpoint <- id + 1;
      Hashtbl.replace session.Registry.checkpoints id
        (Incremental.checkpoint session.Registry.incr);
      Protocol.Checkpointed { session = session_id; checkpoint = id })

let handle_rollback t ?rid ~session_id ~checkpoint () =
  find_session t session_id @@ fun session ->
  on_session t ?rid ~op:"rollback" session (fun () ->
      match Hashtbl.find_opt session.Registry.checkpoints checkpoint with
      | None ->
        err Protocol.Unknown_checkpoint "no checkpoint %d in session %d"
          checkpoint session_id
      | Some c ->
        (match Incremental.rollback session.Registry.incr c with
         | () -> Protocol.Rolled_back { session = session_id }
         | exception Invalid_argument _ ->
           Hashtbl.remove session.Registry.checkpoints checkpoint;
           err Protocol.Unknown_checkpoint
             "checkpoint %d was invalidated by an earlier rollback" checkpoint))

let handle_close t ?rid ~session_id () =
  find_session t session_id @@ fun session ->
  on_session t ?rid ~op:"close" session (fun () ->
      Registry.close_session t.registry session;
      Protocol.Closed { session = session_id })

let handle_request t ~tenant ~rid req =
  Tm.incr m_requests;
  match (req : Protocol.request) with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Metrics_snapshot ->
    Protocol.Metrics_snapshot_report
      {
        uptime_s = uptime_s t;
        version = t.version;
        snapshot = Tm.Snapshot.take ();
      }
  | Protocol.Shutdown ->
    request_stop t;
    Protocol.Shutdown_ack
  | Protocol.Open_session { tenant = tn; circuit; device; temp_c; pattern } ->
    tenant := tn;
    with_admission t !tenant (fun () ->
        handle_open t ~rid ~tenant:tn ~circuit ~device ~temp_c ~pattern ())
  | Protocol.Apply_batch { session; edits } ->
    with_admission t !tenant (fun () ->
        handle_apply t ~rid ~session_id:session ~edits ())
  | Protocol.Query { session; refresh } ->
    with_admission t !tenant (fun () ->
        handle_query t ~rid ~session_id:session ~refresh ())
  | Protocol.Checkpoint { session } ->
    with_admission t !tenant (fun () ->
        handle_checkpoint t ~rid ~session_id:session ())
  | Protocol.Rollback { session; checkpoint } ->
    with_admission t !tenant (fun () ->
        handle_rollback t ~rid ~session_id:session ~checkpoint ())
  | Protocol.Close { session } ->
    with_admission t !tenant (fun () ->
        handle_close t ~rid ~session_id:session ())

(* --------------------------------------------------------- connections *)

let response_status = function
  | Protocol.Error { code; _ } -> Protocol.error_code_name code
  | _ -> "ok"

let handle_connection t fd =
  Tm.incr m_connections;
  let conn = Atomic.fetch_and_add t.conn_seq 1 in
  let seq = ref 0 in
  let tenant = ref "anon" in
  let continue = ref true in
  (try
     while !continue do
       match Wire.read_frame fd with
       | exception End_of_file -> continue := false
       | exception Wire.Truncated -> continue := false
       | frame ->
         (* request ids are daemon-unique: connection ordinal + per-
            connection sequence; they tag log lines, spans, and replies'
            slow-request reports, never the numeric results *)
         let rid = Printf.sprintf "c%d-%d" conn !seq in
         incr seq;
         let t0 = Tm.now_us () in
         let op = ref "malformed" in
         let resp =
           match Protocol.decode_request frame with
           | req ->
             op := Protocol.request_name req;
             handle_request t ~tenant ~rid req
           | exception Wire.Bad_frame m ->
             Tm.incr m_bad_frames;
             err Protocol.Bad_request "malformed request: %s" m
           | exception Wire.Truncated ->
             Tm.incr m_bad_frames;
             err Protocol.Bad_request "truncated request payload"
         in
         let dur_us = Tm.now_us () -. t0 in
         Tm.observe
           (Tm.histogram_with "serve.request_us"
              [ ("op", !op); ("tenant", !tenant) ])
           dur_us;
         let fields () =
           [
             ("rid", Log.str rid);
             ("op", Log.str !op);
             ("tenant", Log.str !tenant);
             ("status", Log.str (response_status resp));
             ("dur_us", Log.float dur_us);
           ]
         in
         if Log.enabled Log.Info then Log.info "request" (fields ());
         if dur_us >= t.slow_us then
           Log.warn "request.slow"
             (fields () @ [ ("threshold_us", Log.float t.slow_us) ]);
         Wire.write_frame fd (Protocol.encode_response resp)
     done
   with
  | Wire.Bad_frame _ ->
    (* garbage at the framing layer: answer if possible, then hang up *)
    Tm.incr m_bad_frames;
    (try
       Wire.write_frame fd
         (Protocol.encode_response (err Protocol.Bad_request "bad frame"))
     with _ -> ())
  | Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------- sampler + http sidecar *)

(* runs on the sampler's ticker domain after each GC/RSS sweep *)
let publish_server_gauges t () =
  Tm.set_gauge g_sessions_live (float_of_int (Registry.live_count t.registry));
  Tm.set_gauge g_queue_depth (float_of_int (Scheduler.queue_depth t.scheduler));
  Tm.set_gauge g_quota (float_of_int (Scheduler.quota t.scheduler));
  (match t.pool with
   | None ->
     Tm.set_gauge g_pool_lanes 1.0;
     Tm.set_gauge g_pool_busy 0.0
   | Some pool ->
     Tm.set_gauge g_pool_lanes (float_of_int (Pool.jobs pool));
     Tm.set_gauge g_pool_busy (if Pool.busy pool then 1.0 else 0.0));
  let inflight = Scheduler.tenant_inflight t.scheduler in
  List.iter
    (fun (tenant, _) ->
      if not (Hashtbl.mem t.tenant_gauges tenant) then
        Hashtbl.replace t.tenant_gauges tenant
          (Tm.gauge_with "serve.tenant_inflight" [ ("tenant", tenant) ]))
    inflight;
  Hashtbl.iter
    (fun tenant g ->
      let v =
        Option.value ~default:0 (List.assoc_opt tenant inflight)
      in
      Tm.set_gauge g (float_of_int v))
    t.tenant_gauges

(* Runs on the select loop's tick (only when a --tenant-rate is set): refill
   every bucket against the wall clock and publish the levels, so an idle
   tenant's gauge climbs back toward burst instead of freezing at the level
   of its last admit. *)
let publish_token_gauges t =
  let levels = Scheduler.tenant_tokens t.scheduler in
  List.iter
    (fun (tenant, _) ->
      if not (Hashtbl.mem t.token_gauges tenant) then
        Hashtbl.replace t.token_gauges tenant
          (Tm.gauge_with "serve.tenant_tokens" [ ("tenant", tenant) ]))
    levels;
  Hashtbl.iter
    (fun tenant g ->
      match List.assoc_opt tenant levels with
      | Some v -> Tm.set_gauge g v
      | None -> ())
    t.token_gauges

let http_routes t path =
  match path with
  | "/metrics" ->
    Tm.incr m_scrapes;
    Some
      (Http.response
         ~content_type:"text/plain; version=0.0.4; charset=utf-8" 200
         (Prometheus.render (Tm.Snapshot.take ())))
  | "/healthz" ->
    let draining = stopping t in
    let body =
      Printf.sprintf
        "{\"status\":\"%s\",\"uptime_s\":%.3f,\"version\":\"%s\",\
         \"sessions\":%d}\n"
        (if draining then "draining" else "ok")
        (uptime_s t) (Json.escape t.version)
        (Registry.live_count t.registry)
    in
    Some
      (Http.response ~content_type:"application/json"
         (if draining then 503 else 200)
         body)
  | _ -> None

let graceful_stop t =
  Log.info "server.stop" [ ("uptime_s", Log.float (uptime_s t)) ];
  (* 1. stop accepting and tear the endpoints down *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  t.listeners <- [];
  (* the http listener survives into the drain so /healthz can answer 503;
     it closes with the sampler below *)
  if Sys.file_exists t.socket_path then (try Unix.unlink t.socket_path with _ -> ());
  (* 2. drain: every queued job still answers its client *)
  Scheduler.shutdown t.scheduler;
  (* 3. flush session state so a restart resumes warm *)
  Registry.flush_all t.registry;
  (* 4. park the worker domains and observers *)
  Option.iter Pool.shutdown t.pool;
  (match t.sampler with
   | Some s ->
     t.sampler <- None;
     Sampler.stop s
   | None -> ());
  (match t.http_listener with
   | Some fd ->
     t.http_listener <- None;
     (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  Atomic.set t.is_running false

let run t =
  Atomic.set t.is_running true;
  if Tm.enabled () then
    t.sampler <-
      Some
        (Sampler.start ~interval:t.sample_interval
           ~extra:(publish_server_gauges t) ());
  Log.info "server.start"
    [
      ("socket", Log.str t.socket_path);
      ("port", Log.int (Option.value ~default:(-1) t.port));
      ("http_port", Log.int (Option.value ~default:(-1) (http_port t)));
      ("version", Log.str t.version);
    ];
  (try
     (* with token buckets on, the loop wakes on a short tick to drive
        refills and the serve.tenant_tokens gauges off the wall clock even
        when no request arrives; otherwise it blocks until a connection *)
     let tick =
       if Scheduler.rate_limited t.scheduler then 0.25 else -1.0
     in
     while not (stopping t) do
       let http_fds = Option.to_list t.http_listener in
       match
         Unix.select ((t.stop_r :: t.listeners) @ http_fds) [] [] tick
       with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, _, _ ->
         if Scheduler.rate_limited t.scheduler then publish_token_gauges t;
         List.iter
           (fun fd ->
             if fd <> t.stop_r && not (stopping t) then begin
               match Unix.accept fd with
               | conn, _ ->
                 if Some fd = t.http_listener then
                   ignore
                     (Thread.create
                        (fun () -> Http.handle conn (http_routes t))
                        ())
                 else
                   ignore
                     (Thread.create (fun () -> handle_connection t conn) ())
               | exception Unix.Unix_error _ -> ()
             end)
           readable
     done
   with e ->
     graceful_stop t;
     raise e);
  graceful_stop t
