(* Tests for the ledger's own helpers: the percentile rule, span self time,
   checksum stability, the JSON reader, and the agreement between the
   metric table and BENCHMARK.json. *)

let floats = Alcotest.(list (float 1e-12))

(* ------------------------------------------------------------- percentiles *)

let samples n = List.init n (fun i -> float_of_int (i + 1))

let tail_of n =
  match Pctl.tail (samples n) with
  | Some t -> (t.Pctl.permille, t.Pctl.samples)
  | None -> (0, n)

let test_tail_rule () =
  let check n want = Alcotest.(check (pair int int)) (Printf.sprintf "n=%d" n) (want, n) (tail_of n) in
  check 10_000 999;
  check 9_999 990;
  check 1_000 990;
  check 999 900;
  check 100 900;
  check 99 500;
  check 20 500;
  Alcotest.(check bool) "19 samples: no percentile has ten beyond it" true
    (Pctl.tail (samples 19) = None)

let test_tail_label () =
  let label n = match Pctl.tail (samples n) with Some t -> Pctl.tail_label t | None -> "-" in
  Alcotest.(check string) "p99.9" "p99.9" (label 20_000);
  Alcotest.(check string) "p99" "p99" (label 1_000);
  Alcotest.(check string) "p90" "p90" (label 200)

let test_quantiles () =
  Alcotest.(check (float 1e-12)) "median odd" 3.0 (Pctl.median [ 5.0; 1.0; 3.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-12)) "median even" 2.5 (Pctl.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "p90 of 1..101" 91.0 (Pctl.quantile (samples 101) 0.9);
  Alcotest.(check (float 1e-12)) "p99 of 1..1000" 990.01 (Pctl.quantile (samples 1000) 0.99);
  Alcotest.(check (float 1e-12)) "single sample" 7.0 (Pctl.quantile [ 7.0 ] 0.99)

(* -------------------------------------------------------------- self time *)

let span ?(track = "0") ?(layer = "x") name start stop =
  { Spans.name; layer; track; start; stop; args = [] }

let test_self_nested () =
  let spans =
    [| span "a" 0.0 10.0; span "b" 1.0 4.0; span "c" 5.0 9.0; span "d" 6.0 7.0;
       span ~track:"1" "e" 2.0 3.0 |]
  in
  Alcotest.(check floats) "self = span minus covered children" [ 3.0; 3.0; 3.0; 1.0; 1.0 ]
    (Array.to_list (Spans.self_times spans));
  let parent = Spans.parents spans in
  Alcotest.(check (list (option int))) "parents by containment, per track"
    [ None; Some 0; Some 0; Some 2; None ] (Array.to_list parent)

let test_self_overlap () =
  (* siblings that overlap (two threads on one track) are covered once *)
  Alcotest.(check (float 1e-12)) "union, clipped to the parent" 7.5
    (Spans.covered ~lo:0.0 ~hi:10.0 [ (1.0, 5.0); (3.0, 6.0); (7.0, 9.0); (9.5, 12.0) ])

let test_layers_from_trace () =
  let json =
    {|{"traceEvents": [
      {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "domain-0"}},
      {"name": "Estimator.average_over_vectors", "cat": "ledger.estimator", "ph": "X",
       "ts": 0.000, "dur": 10000.000, "pid": 1, "tid": 0},
      {"name": "characterize", "cat": "library", "ph": "X", "ts": 1000.000,
       "dur": 6000.000, "pid": 1, "tid": 0, "args": {"cell": "INV"}},
      {"name": "drain", "cat": "pool", "ph": "X", "ts": 500.000, "dur": 2000.000,
       "pid": 1, "tid": 1},
      {"name": "mark", "cat": "app", "ph": "i", "ts": 3.0, "s": "t", "pid": 1, "tid": 0}
    ], "displayTimeUnit": "ms"}|}
  in
  let spans = Spans.of_trace (Json.parse json) in
  Alcotest.(check int) "complete events only" 3 (List.length spans);
  Alcotest.(check (list (pair string (float 1e-9)))) "self ms per layer"
    [ ("estimator", 4.0); ("library", 6.0); ("pool", 2.0) ]
    (Spans.layer_self_ms spans)

(* --------------------------------------------------------------- checksum *)

let fold xs = Checksum.to_hex (Checksum.add_floats (Checksum.add_string Checksum.empty "s838") xs)

let test_checksum () =
  let xs = [ 1.0e-9; 2.5e-7; -3.0; 0.0 ] in
  Alcotest.(check string) "same inputs, same checksum" (fold xs) (fold xs);
  Alcotest.(check string) "pinned value" "eb3a534bc8dc55ce" (fold xs);
  Alcotest.(check bool) "order matters" true (fold xs <> fold (List.rev xs));
  Alcotest.(check bool) "every bit matters" true
    (fold [ 1.0 ] <> fold [ Float.succ 1.0 ] && fold [ 0.0 ] <> fold [ -0.0 ]);
  Alcotest.(check bool) "strings are length-prefixed" true
    (Checksum.add_string (Checksum.add_string Checksum.empty "ab") "c"
    <> Checksum.add_string (Checksum.add_string Checksum.empty "a") "bc")

(* ------------------------------------------------------------------- json *)

let test_json () =
  let j = Json.parse {| {"ab": 1, "a": [true, null, "x\"é"], "n": -2.5e3} |} in
  Alcotest.(check (option (float 0.0))) "exact key, not a prefix" (Some 1.0)
    (Option.bind (Json.member "ab" j) Json.to_num);
  Alcotest.(check int) "array" 3 (List.length (Json.to_list (Option.get (Json.member "a" j))));
  Alcotest.(check (option string)) "escapes" (Some "x\"\xc3\xa9")
    (Option.bind (Json.member "a" j) (fun a -> Json.to_str (List.nth (Json.to_list a) 2)));
  Alcotest.(check (option (float 0.0))) "number" (Some (-2500.0))
    (Option.bind (Json.member "n" j) Json.to_num);
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (match Json.parse bad with _ -> false | exception Json.Error _ -> true))
    [ "{"; "[1,]"; "{\"a\" 1}"; "1 2"; "\"abc"; "tru" ]

(* ----------------------------------------------------- BENCHMARK.json *)

let test_manifest () =
  let j = Json.parse (Json.read_file "../BENCHMARK.json") in
  let entries k = Json.to_list (Option.get (Json.member k j)) in
  let field k e = Option.get (Option.bind (Json.member k e) Json.to_str) in
  let e2e =
    List.map
      (fun e ->
        ( field "name" e, field "unit" e, field "better" e,
          Option.get (Option.bind (Json.member "bound" e) Json.to_num) ))
      (entries "end_to_end")
  in
  Alcotest.(check (list (triple string string (pair string (float 0.0)))))
    "end_to_end matches the metric table"
    (List.map
       (fun (m : Metrics.e2e) ->
         (m.Metrics.e_name, m.Metrics.e_unit, (Metrics.better_name m.Metrics.e_better, m.Metrics.bound)))
       Metrics.end_to_end)
    (List.map (fun (n, u, b, bound) -> (n, u, (b, bound))) e2e);
  Alcotest.(check (list (triple string string string)))
    "per_layer matches the metric table"
    (List.map
       (fun (m : Metrics.layer_metric) ->
         (m.Metrics.name, m.Metrics.unit_, Metrics.better_name m.Metrics.better))
       Metrics.per_layer)
    (List.map (fun e -> (field "name" e, field "unit" e, field "better" e)) (entries "per_layer"))

let () =
  Alcotest.run "ledger"
    [
      ( "percentiles",
        [ Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "tail label" `Quick test_tail_label;
          Alcotest.test_case "quantiles" `Quick test_quantiles ] );
      ( "spans",
        [ Alcotest.test_case "nested self time" `Quick test_self_nested;
          Alcotest.test_case "overlapping children" `Quick test_self_overlap;
          Alcotest.test_case "layers from a Chrome trace" `Quick test_layers_from_trace ] );
      ("checksum", [ Alcotest.test_case "stability" `Quick test_checksum ]);
      ("json", [ Alcotest.test_case "reader" `Quick test_json ]);
      ("manifest", [ Alcotest.test_case "BENCHMARK.json" `Quick test_manifest ]);
    ]
