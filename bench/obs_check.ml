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
module Report = Leakage_spice.Leakage_report
module Suite = Leakage_benchmarks.Suite
module Telemetry = Leakage_telemetry.Telemetry
module Log = Leakage_telemetry.Log
module Prometheus = Leakage_telemetry.Prometheus
module Protocol = Leakage_server.Protocol
module Server = Leakage_server.Server
module Client = Leakage_server.Client
module Top_view = Leakage_server.Top_view

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if cond then Printf.printf "ok: %s\n%!" msg
      else begin
        Printf.eprintf "obs_check: FAIL %s\n%!" msg;
        exit 1
      end)
    fmt

let eq_components (a : Report.components) (b : Report.components) =
  Float.equal a.Report.isub b.Report.isub
  && Float.equal a.Report.igate b.Report.igate
  && Float.equal a.Report.ibtbt b.Report.ibtbt

(* ------------------------------------------------- tiny strict JSON *)

(* Enough JSON to validate log lines and the metrics meta block without a
   dependency; strict about structure, lenient about number formats. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r')
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          if !pos + 1 >= n then fail "dangling escape";
          (match s.[!pos + 1] with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
             if !pos + 5 >= n then fail "bad \\u escape";
             (* decode to '?' — log validation only needs structure *)
             Buffer.add_char b '?';
             pos := !pos + 4
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          pos := !pos + 2;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr pos
      done;
      if !pos = start then fail "unexpected character";
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some v -> Num v
       | None -> fail "bad number")
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field o k =
  match o with Obj kvs -> List.assoc_opt k kvs | _ -> None

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
          if not (eq_components la lb && eq_components ba bb) then
            check false "tenant %s query %d bit-identical" tenant j)
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
  (match parse_json body with
   | j ->
     check (obj_field j "status" = Some (Str "ok")) "/healthz status is ok";
     check
       (match obj_field j "uptime_s" with Some (Num u) -> u >= 0.0 | _ -> false)
       "/healthz reports uptime"
   | exception Bad_json m -> check false "/healthz body is JSON (%s)" m);

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
      match parse_json line with
      | exception Bad_json m -> check false "log line %d parses (%s)" (i + 1) m
      | j ->
        let has k = obj_field j k <> None in
        if not (has "ts" && has "level" && has "event") then
          check false "log line %d has ts/level/event" (i + 1);
        (match obj_field j "event" with
         | Some (Str ("request" | "request.slow" as ev)) ->
           if ev = "request" then incr requests else incr slow;
           (match obj_field j "rid" with
            | Some (Str rid) when rid <> "" -> ()
            | _ -> check false "log line %d (%s) carries a rid" (i + 1) ev)
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
