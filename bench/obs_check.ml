(* obs_check: CI gate for the observability layer.

   Runs the same deterministic two-tenant workload twice against in-process
   daemons — once uninstrumented (telemetry off, no log, no sidecar), once
   fully instrumented (telemetry on, JSONL log at debug with a 0ms slow
   threshold, HTTP sidecar, fast runtime sampler) — and fails unless:

   1. every wire reply's numeric payload is bit-identical between the two
      runs (observability must never steer a result);
   2. /metrics scraped over real HTTP mid-workload parses with the strict
      Prometheus grammar (no substring probes), histograms are structurally
      valid (le monotone, buckets cumulative, +Inf = _count), and the
      exposition carries the per-op/per-tenant labeled latency family plus
      runtime gauges;
   3. /healthz answers 200/"ok" while serving;
   4. every JSONL log line parses as one JSON object with ts/level/event,
      and every request event carries a request id (slow-request events
      included — the 0ms threshold forces one per request);
   5. leakctl top's view model renders non-empty rate and percentile
      columns from two successive metrics snapshots. *)

module Netlist = Leakage_circuit.Netlist
module Suite = Leakage_benchmarks.Suite
module Telemetry = Leakage_telemetry.Telemetry
module Log = Leakage_telemetry.Log
module Prometheus = Leakage_telemetry.Prometheus
module Json = Leakage_telemetry.Json
module Protocol = Leakage_server.Protocol
module Server = Leakage_server.Server
module Client = Leakage_server.Client
module Top_view = Leakage_server.Top_view

let check cond fmt = Gate_kit.check "obs_check" cond fmt

(* --------------------------------------------------------- workload *)

(* Each tenant drives its own circuit, so per-tenant results are a pure
   function of its edit script — independent of cross-tenant
   interleaving, which is exactly what makes the two runs comparable. *)
let tenants = [ ("alice", "s838"); ("bob", "alu88") ]

let batches_for nl =
  let n = Netlist.gate_count nl in
  let n_in = Array.length (Netlist.inputs nl) in
  List.init 6 (fun b ->
      List.init 3 (fun k ->
          let pick = (b * 41 + k * 17 + 7) mod n in
          if k = 2 then Protocol.Set_input ((b * 13 + 1) mod n_in, b mod 2 = 0)
          else Protocol.Resize (pick, 1.0 +. (float_of_int ((b + k) mod 5) /. 8.0))))

(* run one tenant's script; returns every queried (loaded, baseline) *)
let run_tenant sock (tenant, circuit) =
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let nl = (Suite.find circuit).Suite.build () in
  let pattern = String.make (Array.length (Netlist.inputs nl)) '0' in
  let o =
    Client.open_session c ~tenant ~circuit:(Protocol.Builtin circuit) ~pattern
      ()
  in
  List.map
    (fun batch ->
      ignore (Client.apply_batch c ~session:o.Client.session batch);
      Client.query c ~session:o.Client.session ())
    (batches_for nl)

let run_workload sock =
  let results = Array.make (List.length tenants) [] in
  let threads =
    List.mapi
      (fun i spec ->
        Thread.create (fun () -> results.(i) <- run_tenant sock spec) ())
      tenants
  in
  List.iter Thread.join threads;
  Array.to_list results

let with_server ?http_port ?slow_us ?sample_interval ~dir f =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "leak.sock" in
  let server =
    Server.create ?http_port ?slow_us ?sample_interval ~executors:2 ~jobs:2
      ~quota:8 ~max_sessions:4 ~version:"obs-check"
      ~state_dir:(Filename.concat dir "state") ~socket:sock ()
  in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join th)
    (fun () -> f server sock)

(* ------------------------------------------------------- raw HTTP *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path
  in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  let raw = Buffer.contents buf in
  let rec find_sep i =
    if i + 3 >= String.length raw then None
    else if String.sub raw i 4 = "\r\n\r\n" then Some i
    else find_sep (i + 1)
  in
  match find_sep 0 with
  | None -> failwith "http_get: no header/body separator"
  | Some i ->
    let head = String.sub raw 0 i in
    let body = String.sub raw (i + 4) (String.length raw - i - 4) in
    let status =
      match String.split_on_char ' ' head with
      | _ :: code :: _ -> int_of_string code
      | _ -> failwith "http_get: bad status line"
    in
    (status, body)

(* ------------------------------------------------------------- main *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "leak-obs-check-%d" (Unix.getpid ()))
  in
  Unix.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
  @@ fun () ->
  (* ---- pass 1: uninstrumented baseline ---- *)
  Telemetry.set_enabled false;
  let plain =
    with_server ~dir:(Filename.concat root "plain") (fun _ sock ->
        run_workload sock)
  in
  check true "uninstrumented baseline: %d tenants ran"
    (List.length plain);

  (* ---- pass 2: fully instrumented ---- *)
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let log_path = Filename.concat root "serve.jsonl" in
  Log.enable_file ~level:Log.Debug log_path;
  let instrumented, scrapes, healthz, top_view =
    with_server
      ~dir:(Filename.concat root "instr")
      ~http_port:0 ~slow_us:0.0 ~sample_interval:0.05
      (fun server sock ->
        let port =
          match Server.http_port server with
          | Some p -> p
          | None -> failwith "no http port bound"
        in
        (* scrape concurrently with the workload *)
        let mid_scrapes = ref [] in
        let scraper_stop = ref false in
        let scraper =
          Thread.create
            (fun () ->
              let scrape () =
                mid_scrapes := http_get port "/metrics" :: !mid_scrapes
              in
              scrape ();
              while not !scraper_stop do
                Thread.delay 0.02;
                scrape ()
              done)
            ()
        in
        let c = Client.connect_unix sock in
        let before = (Client.metrics_snapshot c).Client.snapshot in
        let results = run_workload sock in
        scraper_stop := true;
        Thread.join scraper;
        let final = http_get port "/metrics" in
        let healthz = http_get port "/healthz" in
        let after = Client.metrics_snapshot c in
        Client.close c;
        let view =
          Top_view.make ~uptime_s:after.Client.uptime_s
            ~version:after.Client.version ~newer:after.Client.snapshot
            ~older:before
        in
        (results, final :: !mid_scrapes, healthz, view))
  in
  Log.disable ();

  (* ---- 1. bit-identity ---- *)
  List.iteri
    (fun i (a, b) ->
      let tenant = fst (List.nth tenants i) in
      check (List.length a = List.length b) "tenant %s: reply counts match"
        tenant;
      List.iteri
        (fun j ((la, ba), (lb, bb)) ->
          if
            not
              (Gate_kit.eq_components la lb && Gate_kit.eq_components ba bb)
          then check false "tenant %s query %d bit-identical" tenant j)
        (List.combine a b);
      check true "tenant %s: %d wire replies bit-identical to uninstrumented"
        tenant (List.length a))
    (List.combine plain instrumented);

  (* ---- 2. exposition validity ---- *)
  check (List.length scrapes >= 2) "%d /metrics scrapes collected"
    (List.length scrapes);
  List.iter
    (fun (status, _) -> if status <> 200 then check false "scrape status %d" status)
    scrapes;
  let parsed =
    List.map
      (fun (_, body) ->
        match Prometheus.parse body with
        | families -> families
        | exception Prometheus.Parse_error (line, msg) ->
          check false "exposition parses (line %d: %s)" line msg;
          [])
      scrapes
  in
  check true "every scrape parses with the strict Prometheus grammar";
  List.iter
    (fun families ->
      match Prometheus.validate_histograms families with
      | [] -> ()
      | errs -> check false "histogram structure: %s" (List.hd errs))
    parsed;
  check true "histograms are structurally valid in every scrape";
  let final_families = List.hd parsed in
  (match Prometheus.find final_families "serve_request_us" with
   | None -> check false "serve_request_us family present"
   | Some fam ->
     check (fam.Prometheus.fam_type = "histogram")
       "serve_request_us is a histogram family";
     let tenants_seen =
       List.filter_map
         (fun (s : Prometheus.sample) -> List.assoc_opt "tenant" s.labels)
         fam.Prometheus.samples
       |> List.sort_uniq compare
     in
     let ops_seen =
       List.filter_map
         (fun (s : Prometheus.sample) -> List.assoc_opt "op" s.labels)
         fam.Prometheus.samples
       |> List.sort_uniq compare
     in
     check
       (List.mem "alice" tenants_seen && List.mem "bob" tenants_seen)
       "latency series labeled per tenant (%s)"
       (String.concat "," tenants_seen);
     check
       (List.mem "open" ops_seen && List.mem "apply" ops_seen
        && List.mem "query" ops_seen)
       "latency series labeled per op (%s)" (String.concat "," ops_seen));
  List.iter
    (fun g ->
      match Prometheus.find final_families g with
      | Some fam ->
        check
          (fam.Prometheus.fam_type = "gauge"
           && fam.Prometheus.samples <> [])
          "runtime gauge %s exposed" g
      | None -> check false "runtime gauge %s exposed" g)
    [ "runtime_gc_minor_words"; "runtime_gc_heap_words"; "runtime_rss_bytes" ];

  (* ---- 3. healthz ---- *)
  let status, body = healthz in
  check (status = 200) "/healthz answers 200 while serving";
  (match
     let j = Json.parse body in
     (Json.str "status" j, Json.num "uptime_s" j)
   with
   | status, uptime ->
     check (status = "ok") "/healthz status is ok";
     check (uptime >= 0.0) "/healthz reports uptime"
   | exception Json.Error m -> check false "/healthz body is JSON (%s)" m);

  (* ---- 4. JSONL log ---- *)
  let lines =
    let ic = open_in log_path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  check (lines <> []) "log has %d lines" (List.length lines);
  let requests = ref 0 and slow = ref 0 in
  List.iteri
    (fun i line ->
      match Json.parse line with
      | exception Json.Error m ->
        check false "log line %d parses (%s)" (i + 1) m
      | j -> (
        match
          ignore (Json.num "ts" j, Json.str "level" j);
          Json.str "event" j
        with
        | exception Json.Error m ->
          check false "log line %d has ts/level/event (%s)" (i + 1) m
        | ("request" | "request.slow") as ev ->
          if ev = "request" then incr requests else incr slow;
          if (try Json.str "rid" j with Json.Error _ -> "") = "" then
            check false "log line %d (%s) carries a rid" (i + 1) ev
        | _ -> ()))
    lines;
  check (!requests > 0) "%d request events logged, each with a rid" !requests;
  check (!slow > 0) "%d slow-request events above the 0ms threshold" !slow;

  (* ---- 5. leakctl top view model ---- *)
  check (top_view.Top_view.ops <> []) "top renders %d op rows"
    (List.length top_view.Top_view.ops);
  List.iter
    (fun (r : Top_view.op_row) ->
      if not (r.rate > 0.0 && r.p50_us > 0.0 && r.p99_us >= r.p50_us) then
        check false "op %s has positive rate and ordered percentiles" r.op)
    top_view.Top_view.ops;
  check true "op rows carry positive rates and ordered p50/p99";
  let top_tenants =
    List.map (fun (r : Top_view.tenant_row) -> r.tenant)
      top_view.Top_view.tenants
  in
  check
    (List.mem "alice" top_tenants && List.mem "bob" top_tenants)
    "top shows both tenants (%s)" (String.concat "," top_tenants);
  let rendered = Format.asprintf "%a" Top_view.pp top_view in
  check (String.length rendered > 0) "top frame renders (%d bytes)"
    (String.length rendered);

  Printf.printf "obs_check: all checks passed\n%!"
