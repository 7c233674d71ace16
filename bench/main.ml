(* Benchmark harness entry point.

   `dune exec bench/main.exe` reproduces every figure/table of the paper's
   evaluation (see bench/figures.ml) and finishes with bechamel
   micro-benchmarks of the core operations. Pass figure names to run a
   subset, e.g. `dune exec bench/main.exe -- fig5 fig12a speed`.
   `-j N` runs the pool-aware figures (fig10/fig11, probabilistic,
   selfcheck) on an N-domain pool; the figure data is bit-identical
   either way (checked by the `selfcheck` figure).
   Set LEAKAGE_BENCH_FULL=1 for paper-scale vector/sample counts. *)

open Bechamel
open Toolkit

module Params = Leakage_device.Params
module Logic = Leakage_circuit.Logic
module Simulate = Leakage_circuit.Simulate
module Report = Leakage_spice.Leakage_report
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Characterize = Leakage_core.Characterize
module Suite = Leakage_benchmarks.Suite
module Rng = Leakage_numeric.Rng

let micro_benchmarks () =
  Format.printf "@.=== bechamel micro-benchmarks ===@.";
  let device = Params.d25 in
  let temp = 300.0 in
  let nl = (Suite.find "s838").Suite.build () in
  let rng = Rng.create 77 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let lib = Library.create ~device ~temp () in
  (* warm the characterization cache so the estimator test measures the
     steady-state per-vector cost, as in the paper's runtime comparison *)
  ignore (Estimator.estimate lib nl pattern);
  let inv_tb = Leakage_core.Testbench.make Leakage_circuit.Gate.Inv [| Logic.Zero |] in
  let tests =
    [
      Test.make ~name:"logic-sim s838"
        (Staged.stage (fun () -> ignore (Simulate.run nl pattern)));
      Test.make ~name:"estimator s838 (fig13)"
        (Staged.stage (fun () -> ignore (Estimator.estimate lib nl pattern)));
      Test.make ~name:"full DC solve s838"
        (Staged.stage (fun () ->
             ignore (Report.analyze ~device ~temp nl pattern)));
      Test.make ~name:"DC solve single inverter"
        (Staged.stage (fun () ->
             ignore
               (Leakage_core.Testbench.solve
                  (Leakage_core.Testbench.compile ~device ~temp inv_tb))));
      Test.make ~name:"characterize NAND2 vector 01"
        (Staged.stage (fun () ->
             ignore
               (Characterize.characterize
                  ~grid:{ Characterize.max_current = 3.0e-6; points = 5 }
                  ~device ~temp (Leakage_circuit.Gate.Nand 2)
                  (Logic.vector_of_string "01"))));
    ]
  in
  let grouped = Test.make_grouped ~name:"leakage" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw_results = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let merged = Analyze.merge ols instances results in
  Format.printf "%-34s %16s@." "benchmark" "time/run";
  let rows = ref [] in
  Hashtbl.iter
    (fun _label tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> rows := (name, t) :: !rows
          | Some [] | None -> ())
        tbl)
    merged;
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Format.printf "%-34s %16s@." name pretty)
    (List.sort compare !rows)

let () =
  (* split a leading/embedded `-j N` (or `--jobs N`) off the figure names *)
  let jobs, names =
    let rec scan jobs acc = function
      | [] -> (jobs, List.rev acc)
      | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> scan (Some j) acc rest
        | _ -> failwith "-j expects a positive domain count")
      | name :: rest -> scan jobs (name :: acc) rest
    in
    scan None [] (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match names with
    | _ :: _ -> names
    | [] -> List.map fst Figures.all @ [ "speed" ]
  in
  let run_figures () =
    List.iter
      (fun name ->
        if name = "speed" || name = "bechamel" then micro_benchmarks ()
        else
          match List.assoc_opt name Figures.all with
          | Some f -> f ()
          | None ->
            Format.printf "unknown figure %S; available: %s speed@." name
              (String.concat " " (List.map fst Figures.all)))
      requested
  in
  match jobs with
  | None -> run_figures ()
  | Some j ->
    Leakage_parallel.Pool.with_pool ~jobs:j (fun p ->
        Figures.pool := Some p;
        run_figures ())
