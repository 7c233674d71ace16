(* The layer ledger: one benchmark program for four workloads, run against
   the library's public API from one process (plus, for serve-mix, the
   daemon it forks). Uses at most two domains, two client threads and two
   client connections.

     ledger.exe --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

   An untraced run (--trace 0) measures the end-to-end metrics; a traced
   run (--trace 1) turns on the library's telemetry counters and trace
   spans plus the ledger's own spans around every call it makes into a
   layer, and reports the per-layer metrics. Either way every output is
   checked, and the last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Traces land in
   .ledger_out/; scratch files live under .ledger_work/ and are removed. *)

module Trace = Leakage_telemetry.Trace
module Estimator = Leakage_core.Estimator
module Vector_mc = Leakage_incremental.Vector_mc

let workloads =
  [
    ("fig12-cold", W_fig12.run);
    ("vector-sweep", W_sweep.run);
    ("serve-mix", W_serve.run);
    ("ingest-1m", W_ingest.run);
  ]

(* A seed no tuning run used: `--held-out` substitutes it for --seed, so a
   claimed gain can be rechecked on inputs nobody looked at. *)
let held_out_seed = 20050307

let usage () =
  prerr_endline
    "usage: ledger.exe --workload (fig12-cold|vector-sweep|serve-mix|ingest-1m) \
     --seed N --seconds S --trace 0|1 [--held-out]";
  exit 2

(* A fingerprint of the library sources the numbers were measured on, for
   checkouts that carry no commit id. *)
let source_digest root =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then files p
           else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then [ p ]
           else [])
  in
  if Sys.file_exists root && Sys.is_directory root then
    Checksum.to_hex
      (List.fold_left
         (fun h p -> Checksum.add_string (Checksum.add_string h p) (Json.read_file p))
         Checksum.empty (files root))
  else "none"

(* Traced runs: write the Chrome trace, then read it back for each layer's
   self time and the exact characterization-time median. *)
let trace_metrics (ctx : Ctx.t) =
  Trace.stop ();
  let json = Trace.to_json () in
  Ctx.mkdir_p ".ledger_out";
  let file =
    Printf.sprintf ".ledger_out/%s-seed%d.trace.json" ctx.Ctx.workload ctx.Ctx.seed
  in
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc json);
  let spans = Spans.of_trace (Json.parse json) in
  List.iter
    (fun (layer, ms) -> Ctx.set ctx (layer ^ ".self_ms") ms)
    (Spans.layer_self_ms spans);
  let builds =
    List.filter_map
      (fun (s : Spans.span) ->
        if s.Spans.layer = "library" && s.Spans.name = "characterize" then
          Some ((s.Spans.stop -. s.Spans.start) /. 1000.0)
        else None)
      spans
  in
  if builds <> [] then Ctx.set ctx "library.build_ms_p50" (Pctl.median builds);
  Ctx.note "trace: %d spans in %s" (List.length spans) file

let json_metric (name, value, unit_) =
  let value = if Float.is_finite value then value else 0.0 in
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let trace = ref false and held_out = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := Some (match int_of_string_opt v with Some s -> s | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      (seconds := match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--held-out" :: rest ->
      held_out := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let seed =
    if !held_out then held_out_seed
    else match !seed with Some s -> s | None -> usage ()
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let work_dir = Printf.sprintf ".ledger_work/%s-%d" !workload (Unix.getpid ()) in
  Ctx.mkdir_p work_dir;
  let ctx =
    Ctx.create ~workload:!workload ~seed ~seconds:!seconds ~traced:!trace ~work_dir
  in
  let finish () = Ctx.rm_rf work_dir in
  (match run ctx with
   | () -> ()
   | exception e ->
     finish ();
     Printf.eprintf "ledger: %s aborted: %s\n%!" !workload (Printexc.to_string e);
     exit 1);
  finish ();
  (try Unix.rmdir ".ledger_work" with Unix.Unix_error _ -> ());
  if ctx.Ctx.traced then trace_metrics ctx;
  let speed = Ctx.Probe.factor () in
  if List.length ctx.Ctx.passes <= 20 then
    Ctx.note "pass times [%s] s; host speed factor %.4f"
      (String.concat ", " (List.map (Printf.sprintf "%.4f") ctx.Ctx.passes))
      speed;
  Ctx.note "meta {\"workload\": %S, \"seed\": %d, \"held_out\": %b, \"seconds\": %g, \
            \"trace\": %b, \"host_cores\": %d, \"avg_chunk\": %d, \"mc_chunk\": %d, \
            \"commit\": %S, \"source_digest\": %S, \"checksum\": %S, \"setups\": %d, \
            \"passes\": %d}"
    !workload seed !held_out !seconds !trace
    (Domain.recommended_domain_count ())
    Estimator.avg_chunk Vector_mc.mc_chunk
    (Option.value (Sys.getenv_opt "LEDGER_COMMIT") ~default:"unknown")
    (source_digest "lib") (Checksum.to_hex ctx.Ctx.checksum)
    (List.length ctx.Ctx.setups) (List.length ctx.Ctx.passes);
  let metrics =
    if ctx.Ctx.traced then
      List.map
        (fun (m : Metrics.layer_metric) ->
          ( m.Metrics.name,
            Option.value (Hashtbl.find_opt ctx.Ctx.layer m.Metrics.name) ~default:0.0,
            m.Metrics.unit_ ))
        Metrics.per_layer
    else begin
      List.iter
        (fun (m : Metrics.layer_metric) ->
          match Hashtbl.find_opt ctx.Ctx.layer m.Metrics.name with
          | Some v -> Ctx.note "reading %s = %.6g %s" m.Metrics.name v m.Metrics.unit_
          | None -> ())
        Metrics.readings;
      let value = function
        | "setup_s" -> Pctl.median ctx.Ctx.setups *. speed
        | "peak_rss_mb" -> float_of_int (max ctx.Ctx.rss_kb ctx.Ctx.daemon_rss_kb) /. 1024.0
        | "pass_s" -> Pctl.median ctx.Ctx.passes *. speed
        | name -> failwith ("no value for " ^ name)
      in
      List.map
        (fun (m : Metrics.e2e) -> (m.Metrics.e_name, value m.Metrics.e_name, m.Metrics.e_unit))
        Metrics.end_to_end
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ctx.Ctx.failed = 0) (max 1 ctx.Ctx.attempted) ctx.Ctx.failed
    (String.concat ", " (List.map json_metric metrics))
