(* vector-sweep: the estimator hot path on a 2-domain pool. Set-up builds
   the eight suite circuits plus the 16k-deep tapped chain and
   characterizes every (kind, strength, vector) key they can touch, so the
   timed passes run the estimator, the vector resampler and the analytic σ
   with no characterization and no solver work. This is where the pool's
   2-domain behaviour and any batch kernel show. *)

module Suite = Leakage_benchmarks.Suite
module Trees = Leakage_benchmarks.Trees
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Logic = Leakage_circuit.Logic
module Simulate = Leakage_circuit.Simulate
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Sensitivity = Leakage_core.Sensitivity
module Vector_mc = Leakage_incremental.Vector_mc
module Report = Leakage_spice.Leakage_report
module Params = Leakage_device.Params
module Physics = Leakage_device.Physics
module Variation = Leakage_device.Variation
module Pool = Leakage_parallel.Pool
module Rng = Leakage_numeric.Rng
module Snapshot = Leakage_telemetry.Telemetry.Snapshot

let jobs = 2

(* Two summation chunks per circuit, so both lanes get one. *)
let vectors = 2 * Estimator.avg_chunk

(* Resampling walks an incremental session per chunk and costs far more
   per vector than a full estimate on the large circuits (about 0.3 s per
   sample on s13207), so those get a token sample count; the small ones
   get two chunks. *)
let samples gates = if gates <= 1000 then 2 * Vector_mc.mc_chunk else 2

type circuit = {
  label : string;
  nl : Netlist.t;
  gates : int;
  vecs : Logic.vector list;
  n_samples : int;
  mc_seed : int;
}

type state = { lib : Library.t; pool : Pool.t; circuits : circuit list }

let entries () =
  List.map (fun (e : Suite.entry) -> (e.Suite.label, e.Suite.build)) Suite.all
  @ [ ("chain16k", fun () -> Trees.chain ~stages:16384 ~tap_every:64 ()) ]

(* Every key a circuit's gates can reach: each (kind, strength) present,
   under every input vector of the kind. *)
let keys circuits =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun c ->
      for g = 0 to c.gates - 1 do
        let k = Netlist.gate_kind c.nl g and s = Netlist.gate_strength c.nl g in
        Hashtbl.replace seen (Gate.code k, s) (k, s)
      done)
    circuits;
  Hashtbl.fold
    (fun _ (k, s) acc ->
      List.map (fun v -> (k, s, v)) (Logic.all_vectors (Gate.arity k)) @ acc)
    seen []
  |> List.sort compare |> Array.of_list

let setup (ctx : Ctx.t) _ =
  let pool = Pool.create ~jobs () in
  let lib = Library.create ~device:Params.d25 ~temp:(Physics.celsius_to_kelvin 25.0) () in
  let rng = Rng.create ctx.Ctx.seed in
  let circuits =
    List.map
      (fun (label, build) ->
        let nl = build () in
        Netlist.warm nl;
        let gates = Netlist.gate_count nl in
        let width = Array.length (Netlist.inputs nl) in
        { label; nl; gates;
          vecs = List.init vectors (fun _ -> Logic.random_vector rng width);
          n_samples = samples gates; mc_seed = Rng.int rng 1_000_000 })
      (entries ())
  in
  ignore
    (Pool.map_array ~pool
       (fun (k, s, v) -> ignore (Library.entry ~strength:s lib k v))
       (keys circuits));
  { lib; pool; circuits }

type row = {
  c : circuit;
  est : Report.components * Report.components;
  mc : Vector_mc.result;
  sigma : Sensitivity.result;
  t_est : float;
  t_mc : float;
  t_sigma : float;
}

let estimate ?pool lib c =
  Ctx.timed (fun () ->
      Ctx.span "estimator" "Estimator.average_over_vectors" (fun () ->
          Estimator.average_over_vectors ?pool lib c.nl c.vecs))

let resample ?pool lib c =
  Ctx.timed (fun () ->
      Ctx.span "incremental" "Vector_mc.resample" (fun () ->
          Vector_mc.resample ?pool ~seed:c.mc_seed ~samples:c.n_samples lib c.nl))

let pass ctx st _ =
  let rows =
    List.filter_map
      (fun c ->
        Ctx.attempt ctx ("sweep " ^ c.label) (fun () ->
            let est, t_est = estimate ~pool:st.pool st.lib c in
            let mc, t_mc = resample ~pool:st.pool st.lib c in
            let (_, _, sigma), t_sigma =
              Ctx.timed (fun () ->
                  Ctx.span "sensitivity" "Sensitivity.estimate_totals" (fun () ->
                      Sensitivity.estimate_totals ~pool:st.pool
                        ~sigmas:Variation.paper_sigmas st.lib c.nl (List.hd c.vecs)))
            in
            { c; est; mc; sigma; t_est; t_mc; t_sigma }))
      st.circuits
  in
  let comps h (c : Report.components) =
    Checksum.add_floats h [ c.Report.isub; c.Report.igate; c.Report.ibtbt ]
  in
  let stat h (s : Sensitivity.component_stat) =
    Checksum.add_floats h [ s.Sensitivity.mean; s.Sensitivity.sigma ]
  in
  let sum =
    List.fold_left
      (fun h r ->
        let h = comps (comps (Checksum.add_string h r.c.label) (fst r.est)) (snd r.est) in
        let h = Checksum.add_floats h (Array.to_list r.mc.Vector_mc.totals) in
        let h = Checksum.add_floats h (Array.to_list r.mc.Vector_mc.baselines) in
        let h = stat (stat h r.sigma.Sensitivity.loaded.Sensitivity.s_total)
            r.sigma.Sensitivity.baseline.Sensitivity.s_total in
        Checksum.add_int (Checksum.add_int h r.sigma.Sensitivity.groups)
          r.sigma.Sensitivity.flagged_gates)
      Checksum.empty rows
  in
  (sum, rows)

let sumf f rows = List.fold_left (fun a r -> a +. f r) 0.0 rows
let gate_vectors rows = sumf (fun r -> float_of_int (r.c.gates * vectors)) rows
let gate_samples rows = sumf (fun r -> float_of_int (r.c.gates * r.c.n_samples)) rows

let mc_fallbacks (s : Sensitivity.result) =
  let count (st : Sensitivity.stats) =
    List.length
      (List.filter
         (fun (c : Sensitivity.component_stat) -> c.Sensitivity.from_mc)
         [ st.Sensitivity.s_isub; st.Sensitivity.s_igate; st.Sensitivity.s_ibtbt;
           st.Sensitivity.s_total ])
  in
  count s.Sensitivity.loaded + count s.Sensitivity.baseline

let same_components (a, b) (c, d) =
  let eq (x : Report.components) (y : Report.components) =
    Float.equal x.Report.isub y.Report.isub
    && Float.equal x.Report.igate y.Report.igate
    && Float.equal x.Report.ibtbt y.Report.ibtbt
  in
  eq a c && eq b d

(* Traced only: the pool sections again on one lane (bit-identity and the
   2-domain speedup), and logic simulation timed on its own. *)
let one_lane ctx st rows =
  let t2_est = sumf (fun r -> r.t_est) rows and t2_mc = sumf (fun r -> r.t_mc) rows in
  let t1_est = ref 0.0 and t1_mc = ref 0.0 in
  List.iter
    (fun r ->
      let est, t = estimate st.lib r.c in
      t1_est := !t1_est +. t;
      let mc, t = resample st.lib r.c in
      t1_mc := !t1_mc +. t;
      Ctx.check ctx (same_components est r.est) "%s: 1-lane estimate differs from 2-lane" r.c.label;
      Ctx.check ctx
        (mc.Vector_mc.totals = r.mc.Vector_mc.totals
        && mc.Vector_mc.baselines = r.mc.Vector_mc.baselines)
        "%s: 1-lane resample differs from 2-lane" r.c.label)
    rows;
  Ctx.set ctx "pool.estimate_speedup_2dom" (!t1_est /. t2_est);
  Ctx.set ctx "pool.resample_speedup_2dom" (!t1_mc /. t2_mc);
  let t_sim =
    sumf
      (fun r ->
        snd
          (Ctx.timed (fun () ->
               Ctx.span "circuit" "Simulate.run" (fun () ->
                   List.iter (fun v -> ignore (Simulate.run r.c.nl v)) r.c.vecs))))
      rows
  in
  Ctx.set ctx "circuit.simulate_ns_per_gate" (t_sim *. 1e9 /. gate_vectors rows)

let run (ctx : Ctx.t) =
  let st = Ctx.setups ctx ~release:(fun s -> Pool.shutdown s.pool) (setup ctx) in
  Fun.protect ~finally:(fun () -> Pool.shutdown st.pool) @@ fun () ->
  let baseline, results, d = Ctx.timed_section ctx ~traced_passes:2 (pass ctx st) in
  Ctx.check_passes ctx (List.map fst (Option.to_list baseline @ results));
  let per_pass f = Pctl.median (List.map (fun (_, rows) -> f rows) results) in
  Ctx.set ctx "estimate_gvps" (per_pass (fun rows -> gate_vectors rows /. sumf (fun r -> r.t_est) rows));
  Ctx.set ctx "resample_gvps" (per_pass (fun rows -> gate_samples rows /. sumf (fun r -> r.t_mc) rows));
  Ctx.set ctx "sigma_s" (per_pass (sumf (fun r -> r.t_sigma)));
  if ctx.Ctx.traced then begin
    Ctx.record_counters ctx d;
    let rows = List.concat_map snd results in
    let n_passes = float_of_int (List.length results) in
    Ctx.set ctx "estimator.ns_per_gate_vector"
      (sumf (fun r -> r.t_est) rows *. 1e9 /. gate_vectors rows);
    Ctx.set ctx "sensitivity.ms" (sumf (fun r -> r.t_sigma) rows *. 1000.0 /. n_passes);
    Ctx.set ctx "vector_mc.ms" (sumf (fun r -> r.t_mc) rows *. 1000.0 /. n_passes);
    let last = snd (List.nth results (List.length results - 1)) in
    Ctx.set ctx "sensitivity.groups" (sumf (fun r -> float_of_int r.sigma.Sensitivity.groups) last);
    Ctx.set ctx "sensitivity.flagged_gates"
      (sumf (fun r -> float_of_int r.sigma.Sensitivity.flagged_gates) last);
    Ctx.set ctx "sensitivity.mc_fallbacks" (sumf (fun r -> float_of_int (mc_fallbacks r.sigma)) last);
    let edits = Ctx.counter d "incr.edits" in
    Ctx.set ctx "incr.cone_gates_per_edit"
      (if edits > 0.0 then Snapshot.histogram_sum d "incr.cone_gates" /. edits else 0.0);
    one_lane ctx st last
  end
