(* Unit tests for the telemetry subsystem: registry semantics, the enabled
   gate, per-domain sharding, gauges, labeled families, the observe guard,
   snapshot merging/diffing/serialization, Prometheus exposition, the
   span tracer's Chrome trace-event output, the JSONL log, and the strict
   JSON reader and escaper that every writer here shares. *)

module Telemetry = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace
module Prometheus = Leakage_telemetry.Prometheus
module Log = Leakage_telemetry.Log
module Json = Leakage_telemetry.Json

let with_recording f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

(* ------------------------------------------------------------- registry *)

let test_registration_idempotent () =
  with_recording (fun () ->
      let a = Telemetry.counter "t.reg" in
      let b = Telemetry.counter "t.reg" in
      Telemetry.incr a;
      Telemetry.incr b;
      let snap = Telemetry.Snapshot.take () in
      (* same name, same metric: both increments land on one counter *)
      Alcotest.(check int) "one counter" 2
        (Telemetry.Snapshot.counter_total snap "t.reg"))

let test_disabled_records_nothing () =
  Telemetry.set_enabled false;
  Telemetry.reset ();
  let c = Telemetry.counter "t.off" in
  let h = Telemetry.histogram "t.off_h" in
  Telemetry.incr c;
  Telemetry.add c 41;
  Telemetry.observe h 7.0;
  Alcotest.(check int) "timed thunk still runs" 9
    (Telemetry.time h (fun () -> 9));
  let snap = Telemetry.Snapshot.take () in
  Alcotest.(check int) "counter untouched" 0
    (Telemetry.Snapshot.counter_total snap "t.off");
  Alcotest.(check int) "histogram untouched" 0
    (Telemetry.Snapshot.histogram_count snap "t.off_h");
  Alcotest.(check bool) "snapshot empty" true (Telemetry.Snapshot.is_empty snap)

let test_counter_add_and_incr () =
  with_recording (fun () ->
      let c = Telemetry.counter "t.count" in
      Telemetry.incr c;
      Telemetry.add c 10;
      Telemetry.incr c;
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check int) "total" 12
        (Telemetry.Snapshot.counter_total snap "t.count");
      Alcotest.(check int) "unknown name is 0" 0
        (Telemetry.Snapshot.counter_total snap "t.never"))

let test_histogram_moments () =
  with_recording (fun () ->
      let h = Telemetry.histogram "t.hist" in
      List.iter (Telemetry.observe h) [ 1.0; 3.0; 8.0; 100.0 ];
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check int) "count" 4
        (Telemetry.Snapshot.histogram_count snap "t.hist");
      Alcotest.(check (float 1e-9)) "sum" 112.0
        (Telemetry.Snapshot.histogram_sum snap "t.hist"))

let test_time_observes_duration () =
  with_recording (fun () ->
      let h = Telemetry.histogram "t.timer" in
      Alcotest.(check int) "value through" 5 (Telemetry.time h (fun () -> 5));
      (match Telemetry.time h (fun () -> failwith "boom") with
       | _ -> Alcotest.fail "expected Failure"
       | exception Failure _ -> ());
      let snap = Telemetry.Snapshot.take () in
      (* both the normal return and the raise were timed *)
      Alcotest.(check int) "two observations" 2
        (Telemetry.Snapshot.histogram_count snap "t.timer");
      Alcotest.(check bool) "non-negative duration" true
        (Telemetry.Snapshot.histogram_sum snap "t.timer" >= 0.0))

let test_reset_zeroes () =
  with_recording (fun () ->
      let c = Telemetry.counter "t.reset" in
      Telemetry.incr c;
      Telemetry.reset ();
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check int) "zero after reset" 0
        (Telemetry.Snapshot.counter_total snap "t.reset");
      (* the registration survives: the handle still works *)
      Telemetry.incr c;
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check int) "handle still live" 1
        (Telemetry.Snapshot.counter_total snap "t.reset"))

let test_per_domain_shards () =
  with_recording (fun () ->
      let c = Telemetry.counter "t.sharded" in
      Telemetry.add c 5;
      let d =
        Domain.spawn (fun () ->
            Telemetry.add c 7;
            Domain.self ())
      in
      let worker_id = (Domain.join d :> int) in
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check int) "merged total" 12
        (Telemetry.Snapshot.counter_total snap "t.sharded");
      let by_domain = Telemetry.Snapshot.counter_by_domain snap "t.sharded" in
      Alcotest.(check int) "two shards" 2 (List.length by_domain);
      Alcotest.(check (option int)) "worker shard kept its own 7" (Some 7)
        (List.assoc_opt worker_id by_domain))

let test_snapshot_json_shape () =
  with_recording (fun () ->
      let c = Telemetry.counter "t.json_c" in
      let h = Telemetry.histogram "t.json_h" in
      Telemetry.add c 3;
      Telemetry.observe h 2.5;
      let snap = Telemetry.Snapshot.take () in
      let j = Json.parse (Telemetry.Snapshot.to_json snap) in
      Alcotest.(check int) "counter total" 3
        (Json.int "t.json_c" (Json.member "counters" j));
      ignore (Json.member "t.json_c" (Json.member "counters_by_domain" j));
      let hj = Json.member "t.json_h" (Json.member "histograms" j) in
      Alcotest.(check int) "histogram count" 1 (Json.int "count" hj);
      Alcotest.(check (float 0.0)) "histogram sum" 2.5 (Json.num "sum" hj));
  (* JSON has no literal for a non-finite float *)
  let snap =
    Telemetry.Snapshot.make ~taken_at:0.0 ~counters:[]
      ~gauges:[ ("t.inf", Float.infinity) ] ~histograms:[] ~meta:[]
  in
  let j = Json.parse (Telemetry.Snapshot.to_json snap) in
  Alcotest.(check bool) "infinite gauge is null" true
    (Json.member "t.inf" (Json.member "gauges" j) = Json.Null)

(* --------------------------------------------------------------- gauges *)

let test_gauge_set_over_set () =
  with_recording (fun () ->
      let g = Telemetry.gauge "t.g" in
      Telemetry.set_gauge g 5.0;
      Telemetry.set_gauge g 6.0;
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check (float 1e-9)) "latest set wins" 6.0
        (Telemetry.Snapshot.gauge_value snap "t.g");
      Alcotest.(check (float 1e-9)) "unknown gauge is 0" 0.0
        (Telemetry.Snapshot.gauge_value snap "t.never"))

let test_gauge_untouched_absent () =
  with_recording (fun () ->
      let _g = Telemetry.gauge "t.g_silent" in
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check bool) "registered-but-untouched gauge not reported"
        false
        (List.mem_assoc "t.g_silent" (Telemetry.Snapshot.gauge_entries snap)))

let test_gauge_merge_across_domains () =
  with_recording (fun () ->
      let g = Telemetry.gauge "t.g_dom" in
      Telemetry.set_gauge g 100.0;
      Domain.join
        (Domain.spawn (fun () ->
             Telemetry.set_gauge g 3.0));
      let snap = Telemetry.Snapshot.take () in
      (* the worker's set is newer, so it wins over this domain's *)
      Alcotest.(check (float 1e-9)) "latest set across domains" 3.0
        (Telemetry.Snapshot.gauge_value snap "t.g_dom"))

(* ------------------------------------------------------ labeled families *)

let test_labeled_family_canonical () =
  with_recording (fun () ->
      let a =
        Telemetry.counter_with "t.req" [ ("op", "q"); ("tenant", "acme") ]
      in
      let b =
        Telemetry.counter_with "t.req" [ ("tenant", "acme"); ("op", "q") ]
      in
      Telemetry.incr a;
      Telemetry.incr b;
      Telemetry.add
        (Telemetry.counter_with "t.req" [ ("op", "q"); ("tenant", "zed") ])
        3;
      let snap = Telemetry.Snapshot.take () in
      let full = {|t.req{op="q",tenant="acme"}|} in
      (* label order is canonicalized, so both handles hit one metric *)
      Alcotest.(check int) "same member regardless of label order" 2
        (Telemetry.Snapshot.counter_total snap full);
      Alcotest.(check int) "sibling member separate" 3
        (Telemetry.Snapshot.counter_total snap {|t.req{op="q",tenant="zed"}|});
      let base, labels = Telemetry.Snapshot.base_and_labels snap full in
      Alcotest.(check string) "base recovered" "t.req" base;
      Alcotest.(check (list (pair string string))) "labels recovered"
        [ ("op", "q"); ("tenant", "acme") ]
        labels;
      let unl_base, unl_labels =
        Telemetry.Snapshot.base_and_labels snap "t.plain"
      in
      Alcotest.(check string) "unlabeled base is itself" "t.plain" unl_base;
      Alcotest.(check (list (pair string string))) "unlabeled has no labels" []
        unl_labels)

(* -------------------------------------------------------- observe guard *)

let test_observe_guard_drops_and_counts () =
  with_recording (fun () ->
      let h = Telemetry.histogram "t.guard" in
      Telemetry.observe h 1.5;
      Telemetry.observe h (-1.0);
      Telemetry.observe h Float.nan;
      Telemetry.observe h Float.infinity;
      let g = Telemetry.gauge "t.guard_g" in
      Telemetry.set_gauge g Float.nan;
      Telemetry.set_gauge g Float.neg_infinity;
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check int) "only the finite sample lands" 1
        (Telemetry.Snapshot.histogram_count snap "t.guard");
      Alcotest.(check (float 1e-9)) "sum uncorrupted" 1.5
        (Telemetry.Snapshot.histogram_sum snap "t.guard");
      Alcotest.(check bool) "gauge untouched by dropped writes" false
        (List.mem_assoc "t.guard_g" (Telemetry.Snapshot.gauge_entries snap));
      Alcotest.(check int) "every drop counted" 5
        (Telemetry.Snapshot.counter_total snap
           "telemetry.dropped_observations"))

(* -------------------------------------------------------- diff, quantile *)

let mk_snapshot ?(taken_at = 0.0) ?(counters = []) ?(gauges = [])
    ?(histograms = []) ?(meta = []) () =
  Telemetry.Snapshot.make ~taken_at ~counters ~gauges ~histograms ~meta

let mk_hist ?(min = 0.0) ?(max = 0.0) ~sum pairs =
  let buckets = Array.make Telemetry.Snapshot.n_buckets 0 in
  List.iter (fun (b, n) -> buckets.(b) <- n) pairs;
  let count = List.fold_left (fun acc (_, n) -> acc + n) 0 pairs in
  { Telemetry.Snapshot.count; sum; min; max; buckets }

let test_diff_windows_and_clamps () =
  let older =
    mk_snapshot ~taken_at:10.0
      ~counters:[ ("steady", 3, [ (0, 3) ]); ("reset", 10, [ (0, 10) ]) ]
      ~histograms:[ ("h", mk_hist ~sum:50.0 ~min:1.0 ~max:9.0 [ (0, 2); (4, 3) ]) ]
      ()
  in
  let newer =
    mk_snapshot ~taken_at:12.0
      ~counters:[ ("steady", 10, [ (0, 10) ]); ("reset", 4, [ (0, 4) ]) ]
      ~gauges:[ ("level", 7.5) ]
      ~histograms:[ ("h", mk_hist ~sum:7.0 ~min:0.5 ~max:3.0 [ (0, 1) ]) ]
      ()
  in
  let d = Telemetry.Snapshot.diff ~newer ~older in
  Alcotest.(check int) "window delta" 7
    (Telemetry.Snapshot.counter_total d "steady");
  (* a counter reset between snapshots clamps at zero, never negative *)
  Alcotest.(check int) "reset clamps to zero" 0
    (Telemetry.Snapshot.counter_total d "reset");
  Alcotest.(check int) "histogram reset clamps too" 0
    (Telemetry.Snapshot.histogram_count d "h");
  Alcotest.(check (float 1e-9)) "histogram sum clamps too" 0.0
    (Telemetry.Snapshot.histogram_sum d "h");
  (* gauges are levels, not totals: the newer value passes through *)
  Alcotest.(check (float 1e-9)) "gauge from newer" 7.5
    (Telemetry.Snapshot.gauge_value d "level");
  Alcotest.(check (float 1e-9)) "stamped with newer time" 12.0
    (Telemetry.Snapshot.taken_at d)

let test_quantile_buckets () =
  (* 50 observations at <= 1, 50 in (4, 8] *)
  let h = mk_hist ~sum:300.0 ~min:0.5 ~max:7.0 [ (0, 50); (3, 50) ] in
  Alcotest.(check (float 1e-9)) "p50 hits the first bucket edge" 1.0
    (Telemetry.Snapshot.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p99 clamps to the observed max" 7.0
    (Telemetry.Snapshot.quantile h 0.99);
  Alcotest.(check (float 1e-9)) "empty histogram is 0" 0.0
    (Telemetry.Snapshot.quantile (mk_hist ~sum:0.0 []) 0.5)

(* ----------------------------------------------------------- prometheus *)

let test_prometheus_roundtrip_with_hostile_labels () =
  with_recording (fun () ->
      let hostile = "a\"b\\c\nd" in
      let h = Telemetry.histogram_with "t.lat" [ ("tenant", hostile) ] in
      List.iter (Telemetry.observe h) [ 0.5; 3.0; 100.0 ];
      Telemetry.incr
        (Telemetry.counter_with "t.hits" [ ("tenant", hostile) ]);
      Telemetry.set_gauge (Telemetry.gauge "t.level.dotted") 4.25;
      let text = Prometheus.render (Telemetry.Snapshot.take ()) in
      let families = Prometheus.parse text in
      Alcotest.(check (list string)) "histograms structurally valid" []
        (Prometheus.validate_histograms families);
      (* dots sanitize to underscores *)
      (match Prometheus.find families "t_level_dotted" with
       | Some { Prometheus.fam_type = "gauge"; samples = [ s ]; _ } ->
         Alcotest.(check (float 1e-9)) "gauge value" 4.25 s.Prometheus.value
       | _ -> Alcotest.fail "t_level_dotted missing or malformed");
      (* the hostile label value survives escape -> parse unchanged; the
         counter family is TYPEd under its suffixed exposition name *)
      (match Prometheus.find families "t_hits_total" with
       | Some { Prometheus.fam_type = "counter"; samples = [ s ]; _ } ->
         Alcotest.(check (option string)) "label round-trips" (Some hostile)
           (List.assoc_opt "tenant" s.Prometheus.labels);
         Alcotest.(check string) "counter suffix" "t_hits_total"
           s.Prometheus.name
       | _ -> Alcotest.fail "t_hits missing or malformed");
      (match Prometheus.find families "t_lat" with
       | Some { Prometheus.fam_type = "histogram"; samples; _ } ->
         let count =
           List.find_opt
             (fun (s : Prometheus.sample) -> s.name = "t_lat_count")
             samples
         in
         Alcotest.(check (option (float 1e-9))) "_count present" (Some 3.0)
           (Option.map (fun (s : Prometheus.sample) -> s.value) count)
       | _ -> Alcotest.fail "t_lat missing or malformed"))

let test_prometheus_empty_snapshot () =
  let text = Prometheus.render (mk_snapshot ()) in
  Alcotest.(check (list string)) "no families" []
    (List.map
       (fun f -> f.Prometheus.fam_name)
       (Prometheus.parse text))

let test_prometheus_parser_strict () =
  let bad text =
    match Prometheus.parse text with
    | _ -> Alcotest.fail "expected Parse_error"
    | exception Prometheus.Parse_error _ -> ()
  in
  bad "no newline at end";
  bad "name{l=\"unterminated} 1\n";
  bad "name 1 trailing garbage here\n";
  bad "name{l=\"bad\\q escape\"} 1\n";
  bad "1starts_with_digit 2\n";
  (* a well-formed family parses and keeps escaped values decoded *)
  let families =
    Prometheus.parse
      "# TYPE x_total counter\nx_total{a=\"p\\\\q\\\"r\\ns\"} 4\n"
  in
  match families with
  | [ { Prometheus.fam_name = "x_total"; fam_type = "counter"; samples = [ s ] } ] ->
    Alcotest.(check (option string)) "decoded label" (Some "p\\q\"r\ns")
      (List.assoc_opt "a" s.Prometheus.labels)
  | _ -> Alcotest.fail "unexpected parse"

(* ---------------------------------------------------------------- trace *)

let test_trace_spans_and_json () =
  Trace.start ();
  let v =
    Trace.with_span ~cat:"test" ~args:[ ("k", "v") ] "outer" (fun () ->
        Trace.with_span "inner" (fun () -> 21 * 2))
  in
  (match Trace.with_span "raising" (fun () -> failwith "boom") with
   | _ -> Alcotest.fail "expected Failure"
   | exception Failure _ -> ());
  Trace.stop ();
  Alcotest.(check int) "value through spans" 42 v;
  (* outer + inner + raising *)
  Alcotest.(check int) "events recorded" 3 (Trace.event_count ());
  let j = Json.parse (Trace.to_json ()) in
  ignore (Json.str "displayTimeUnit" j);
  let events = Json.arr "traceEvents" j in
  let named n = List.find (fun e -> Json.str "name" e = n) events in
  List.iter
    (fun n ->
      Alcotest.(check string) (n ^ " is a span") "X" (Json.str "ph" (named n)))
    [ "outer"; "inner"; "raising" ];
  Alcotest.(check string) "span args" "v"
    (Json.str "k" (Json.member "args" (named "outer")));
  Alcotest.(check string) "track metadata" "M"
    (Json.str "ph" (named "thread_name"))

let test_trace_disabled_is_passthrough () =
  Trace.start ();
  Trace.stop ();
  (* recorded-but-stopped state: spans run their thunk, record nothing *)
  Alcotest.(check int) "thunk runs" 3 (Trace.with_span "off" (fun () -> 3));
  Alcotest.(check int) "nothing recorded" 0 (Trace.event_count ());
  (* start clears any previous events *)
  Trace.start ();
  Trace.with_span "one" ignore;
  Trace.stop ();
  Alcotest.(check int) "fresh after start" 1 (Trace.event_count ())

let test_trace_escapes_strings () =
  Trace.start ();
  Trace.with_span ~args:[ ("path", "a\"b\\c\nd") ] "quote\"name" ignore;
  Trace.stop ();
  let j = Json.parse (Trace.to_json ()) in
  let spans =
    List.filter (fun e -> Json.str "ph" e = "X") (Json.arr "traceEvents" j)
  in
  match spans with
  | [ e ] ->
    Alcotest.(check string) "name decodes exactly" "quote\"name"
      (Json.str "name" e);
    Alcotest.(check string) "arg decodes exactly" "a\"b\\c\nd"
      (Json.str "path" (Json.member "args" e))
  | _ -> Alcotest.fail "expected one span"

(* ------------------------------------------------------------------ log *)

(* quote, backslash, the named and unnamed control bytes, DEL and UTF-8 *)
let hostile = "a\"b\\c\nd\r\t\001\127\xc3\xa9"

let test_log_line_is_json () =
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect ~finally:(fun () -> Log.disable (); Sys.remove path) @@ fun () ->
  Log.enable_file ~level:Log.Debug path;
  Log.info ("ev" ^ hostile)
    [ ("k" ^ hostile, Log.str hostile); ("x", Log.float Float.nan);
      ("n", Log.float 3.0) ];
  Log.disable ();
  let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  Alcotest.(check string) "level" "info" (Json.str "level" j);
  Alcotest.(check string) "event decodes exactly" ("ev" ^ hostile)
    (Json.str "event" j);
  Alcotest.(check string) "field decodes exactly" hostile
    (Json.str ("k" ^ hostile) j);
  Alcotest.(check bool) "non-finite float is null" true
    (Json.member "x" j = Json.Null);
  Alcotest.(check int) "finite float is a number" 3 (Json.int "n" j)

(* ----------------------------------------------------------------- json *)

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_json_rejects () =
  List.iter
    (fun input ->
      match Json.parse input with
      | _ -> Alcotest.failf "accepted %S" input
      | exception Json.Error _ -> ())
    [ "{} x"; "[1] ]"; "\"abc"; "[1, 2"; "{\"a\": 1"; "{\"a\""; "\"a\001b\"";
      "\"\\q\""; "\"\\u12g4\""; "\"\\ud800\""; "+1"; "01"; "-01"; "1."; ".5";
      "1e"; "-"; "inf"; "nan"; "tru"; "[1,]"; "{\"a\" 1}"; "";
      String.make 513 '[' ^ String.make 513 ']' ];
  ignore (Json.parse (String.make 512 '[' ^ String.make 512 ']'))

let test_json_accepts () =
  Alcotest.(check bool) "nested values, escapes and number forms" true
    (Json.parse
       " {\"a\": [0, -1.5e+3, 2E-2, true, false, null],\n\
        \"s\": \"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\ud83d\\ude00\"} "
     = Json.Obj
         [ ("a", Json.Arr [ Json.Num 0.0; Json.Num (-1500.0); Json.Num 0.02;
                            Json.Bool true; Json.Bool false; Json.Null ]);
           ("s", Json.Str "\"\\/\b\012\n\r\t\xc3\xa9\xf0\x9f\x98\x80") ])

let test_json_member () =
  let v = Json.parse {|{"ab":1,"a":2}|} in
  Alcotest.(check bool) "exact key, not a prefix" true
    (Json.member "a" v = Json.Num 2.0);
  match Json.member "x" (Json.parse {|{"o":{"x":1}}|}) with
  | _ -> Alcotest.fail "found a key of a nested object"
  | exception Json.Error _ -> ()

let prop_escape_roundtrip =
  qtest "escape round-trips any byte string" QCheck2.Gen.string (fun s ->
      Json.parse ("\"" ^ Json.escape s ^ "\"") = Json.Str s)

let golden_text =
  lazy (In_channel.with_open_bin "golden_suite.json" In_channel.input_all)

let prop_golden_mutations_fail_closed =
  qtest "golden corpus truncations and byte flips parse or raise Json.Error"
    QCheck2.Gen.(triple bool (int_bound 1_000_000) char)
    (fun (truncate, i, c) ->
      let text = Lazy.force golden_text in
      let i = i mod String.length text in
      let mutated =
        if truncate then String.sub text 0 i
        else String.mapi (fun j b -> if j = i then c else b) text
      in
      match Json.parse mutated with _ | (exception Json.Error _) -> true)

(* --------------------------------------------------- publish-once library *)

module Library = Leakage_core.Library
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Params = Leakage_device.Params

let test_library_publish_once () =
  with_recording (fun () ->
      let lib = Library.create ~device:Params.d25 ~temp:300.0 () in
      let vec = [| Logic.Zero; Logic.One |] in
      ignore (Library.entry lib (Gate.Nand 2) vec);
      let snap = Telemetry.Snapshot.take () in
      let misses = Telemetry.Snapshot.counter_total snap "library.misses" in
      Alcotest.(check int) "one characterization on this domain" 1 misses;
      Alcotest.(check int) "published alongside" 1
        (Telemetry.Snapshot.counter_total snap "library.published");
      (* a fresh domain has a cold DLS cache, but the published snapshot
         means it adopts the entry instead of re-characterizing *)
      Domain.join (Domain.spawn (fun () -> ignore (Library.entry lib (Gate.Nand 2) vec)));
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check int) "no second characterization"
        misses
        (Telemetry.Snapshot.counter_total snap "library.misses");
      Alcotest.(check int) "adopted from the published snapshot" 1
        (Telemetry.Snapshot.counter_total snap "library.shared_hits");
      (* a second lookup on the spawning domain is an ordinary cache hit *)
      ignore (Library.entry lib (Gate.Nand 2) vec);
      let snap = Telemetry.Snapshot.take () in
      Alcotest.(check int) "warm hit stays local" 1
        (Telemetry.Snapshot.counter_total snap "library.hits"))

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "registration idempotent" `Quick
            test_registration_idempotent;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "incr and add" `Quick test_counter_add_and_incr;
          Alcotest.test_case "histogram moments" `Quick test_histogram_moments;
          Alcotest.test_case "time observes" `Quick test_time_observes_duration;
          Alcotest.test_case "reset" `Quick test_reset_zeroes;
          Alcotest.test_case "per-domain shards" `Quick test_per_domain_shards;
          Alcotest.test_case "snapshot JSON" `Quick test_snapshot_json_shape;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "set over a set" `Quick test_gauge_set_over_set;
          Alcotest.test_case "untouched gauge absent" `Quick
            test_gauge_untouched_absent;
          Alcotest.test_case "merge across domains" `Quick
            test_gauge_merge_across_domains;
        ] );
      ( "labels",
        [
          Alcotest.test_case "canonical families" `Quick
            test_labeled_family_canonical;
        ] );
      ( "guard",
        [
          Alcotest.test_case "bad observations dropped and counted" `Quick
            test_observe_guard_drops_and_counts;
        ] );
      ( "windows",
        [
          Alcotest.test_case "diff deltas and reset clamp" `Quick
            test_diff_windows_and_clamps;
          Alcotest.test_case "bucket quantiles" `Quick test_quantile_buckets;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "render/parse round-trip" `Quick
            test_prometheus_roundtrip_with_hostile_labels;
          Alcotest.test_case "empty snapshot" `Quick
            test_prometheus_empty_snapshot;
          Alcotest.test_case "strict parser" `Quick
            test_prometheus_parser_strict;
        ] );
      ( "library",
        [
          Alcotest.test_case "publish once across domains" `Quick
            test_library_publish_once;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans and JSON" `Quick test_trace_spans_and_json;
          Alcotest.test_case "disabled passthrough" `Quick
            test_trace_disabled_is_passthrough;
          Alcotest.test_case "string escaping" `Quick test_trace_escapes_strings;
        ] );
      ( "log",
        [
          Alcotest.test_case "line is strict JSON" `Quick
            test_log_line_is_json;
        ] );
      ( "json",
        [
          Alcotest.test_case "rejections" `Quick test_json_rejects;
          Alcotest.test_case "accepted forms" `Quick test_json_accepts;
          Alcotest.test_case "member" `Quick test_json_member;
          prop_escape_roundtrip;
          prop_golden_mutations_fail_closed;
        ] );
    ]
