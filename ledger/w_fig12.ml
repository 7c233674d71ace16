(* fig12-cold: the paper's Fig 12a / §6 flow as `leakctl suite` plus
   `--spice` runs it with one job. Each pass starts from a cold library,
   parses the eight suite circuits from .bench files in the paper's order,
   averages the loading-aware estimate over random vectors, and solves the
   leading vector at transistor level for the accuracy comparison. Cold
   characterization and the reference solve dominate; the pool is idle. *)

module Suite = Leakage_benchmarks.Suite
module Netlist = Leakage_circuit.Netlist
module Logic = Leakage_circuit.Logic
module Bench_format = Leakage_circuit.Bench_format
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Report = Leakage_spice.Leakage_report
module Params = Leakage_device.Params
module Physics = Leakage_device.Physics
module Rng = Leakage_numeric.Rng

(* leakctl suite's default vector count *)
let vectors = 10

(* Leading vectors also solved at transistor level; the solve costs 0.05-2 s
   per vector on these circuits. *)
let solved = 1

(* EXPERIMENTS.md measures every circuit within ±0.32% of the solver over
   3-20 vectors. One solved vector scatters more: on s838 the single-vector
   error is 0.31% ± 0.06% (up to 0.41% seen), so the check allows a margin
   of 0.3 points, five standard deviations above that mean, and still
   fails a 1% estimator error on every circuit. *)
let err_limit_pct = 0.32 +. 0.3

let device = Params.d25
let temp = Physics.celsius_to_kelvin 25.0

type circuit = { label : string; file : string; vecs : Logic.vector list }

type row = {
  c : circuit;
  gates : int;
  loaded : Report.components;
  base : Report.components;
  est_sub : Report.components;
  solver : Report.components;
  t_est : float;
  t_solve : float;
}

let setup (ctx : Ctx.t) _ =
  let dir = Ctx.path ctx "fig12" in
  Ctx.mkdir_p dir;
  let rng = Rng.create ctx.Ctx.seed in
  List.map
    (fun (e : Suite.entry) ->
      let nl = e.Suite.build () in
      let file = Filename.concat dir (e.Suite.label ^ ".bench") in
      Bench_format.write_file file nl;
      let width = Array.length (Netlist.inputs nl) in
      { label = e.Suite.label; file;
        vecs = List.init vectors (fun _ -> Logic.random_vector rng width) })
    Suite.all

let fold_components h (c : Report.components) =
  Checksum.add_floats h [ c.Report.isub; c.Report.igate; c.Report.ibtbt ]

let err_pct r =
  abs_float ((Report.total r.est_sub -. Report.total r.solver) /. Report.total r.solver)
  *. 100.0

let pass ctx circuits _ =
  let lib = Library.create ~device ~temp () in
  let rows =
    List.filter_map
      (fun c ->
        Ctx.attempt ctx ("fig12 " ^ c.label) (fun () ->
            let nl =
              Ctx.span "circuit" "Bench_format.parse_file" (fun () ->
                  Bench_format.parse_file c.file)
            in
            let (loaded, base), t_est =
              Ctx.timed (fun () ->
                  Ctx.span "estimator" "Estimator.average_over_vectors" (fun () ->
                      Estimator.average_over_vectors lib nl c.vecs))
            in
            let sub = List.filteri (fun i _ -> i < solved) c.vecs in
            let est_sub, _ =
              Ctx.span "estimator" "Estimator.average_over_vectors" (fun () ->
                  Estimator.average_over_vectors lib nl sub)
            in
            let sum, t_solve =
              Ctx.timed (fun () ->
                  List.fold_left
                    (fun acc v ->
                      let r, _, _ =
                        Ctx.span "spice" "Leakage_report.analyze" (fun () ->
                            Report.analyze ~device ~temp nl v)
                      in
                      Report.add acc r.Report.totals)
                    Report.zero sub)
            in
            { c; gates = Netlist.gate_count nl; loaded; base; est_sub;
              solver = Report.scale (1.0 /. float_of_int solved) sum; t_est; t_solve }))
      circuits
  in
  List.iter
    (fun r ->
      Ctx.check ctx (err_pct r <= err_limit_pct) "%s: estimator %.3f%% off the solver (limit %.2f%%)"
        r.c.label (err_pct r) err_limit_pct)
    rows;
  let sum =
    List.fold_left
      (fun h r ->
        List.fold_left fold_components (Checksum.add_string h r.c.label)
          [ r.loaded; r.base; r.est_sub; r.solver ])
      Checksum.empty rows
  in
  (sum, rows)

let run (ctx : Ctx.t) =
  let circuits = Ctx.setups ctx ~release:ignore (setup ctx) in
  let baseline, results, d = Ctx.timed_section ctx ~traced_passes:1 (pass ctx circuits) in
  Ctx.check_passes ctx (List.map fst (Option.to_list baseline @ results));
  let rows = List.concat_map snd results in
  let worst = List.fold_left (fun m r -> Float.max m (err_pct r)) 0.0 rows in
  Ctx.note "fig12-cold: max |estimator - solver| = %.3f%% over %d circuits (limit %.2f%%)"
    worst (List.length circuits) err_limit_pct;
  Ctx.set ctx "fig12_s" (Pctl.median ctx.Ctx.passes);
  Ctx.set ctx "fig12_err_pct" worst;
  if ctx.Ctx.traced then begin
    Ctx.record_counters ctx d;
    let n_passes = float_of_int (List.length results) in
    let solves = float_of_int (List.length rows * solved) in
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
    Ctx.set ctx "spice.solve_ms_per_vector" (sum (fun r -> r.t_solve) *. 1000.0 /. solves);
    Ctx.set ctx "estimator.fig12_ms" (sum (fun r -> r.t_est) *. 1000.0 /. n_passes)
  end
