module Rng = Leakage_numeric.Rng
module Interp = Leakage_numeric.Interp
module Stats = Leakage_numeric.Stats
module Variation = Leakage_device.Variation
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Report = Leakage_spice.Leakage_report

type sample_totals = {
  with_loading : Report.components;
  no_loading : Report.components;
}

type result = {
  samples : sample_totals array;
  total_with_loading : float array;
  total_no_loading : float array;
}

(* The reference inverter's components in both input states, at the
   library corner: the denominators of every sample's die scale. *)
let reference lib device v =
  Testbench.isolated_components ~device ~temp:(Library.temp lib) Gate.Inv
    [| v |]

let nominal_references lib =
  let device = Library.device lib in
  (reference lib device Logic.Zero, reference lib device Logic.One)

(* Component-wise ratio of a die-shifted reference inverter to the nominal
   one, averaged over both input states. Captures how geometry and supply
   shifts move each mechanism without touching the per-gate threshold story
   (the die threshold shift is excluded here and folded into the per-gate
   exponent instead). *)
let scale_against lib (nominal_zero, nominal_one) (die : Variation.die) =
  let geometry_only = { die with Variation.dvth = 0.0 } in
  let shifted = Variation.apply_die (Library.device lib) geometry_only in
  let shifted_zero = reference lib shifted Logic.Zero
  and shifted_one = reference lib shifted Logic.One in
  let ratio pick =
    let r num den =
      let num = pick num and den = pick den in
      if den <= 0.0 then 1.0 else num /. den
    in
    0.5 *. (r shifted_zero nominal_zero +. r shifted_one nominal_one)
  in
  {
    Report.isub = ratio (fun c -> c.Report.isub);
    igate = ratio (fun c -> c.Report.igate);
    ibtbt = ratio (fun c -> c.Report.ibtbt);
  }

let die_scale lib die = scale_against lib (nominal_references lib) die

module Tm = Leakage_telemetry.Telemetry

let m_samples = Tm.counter "statistical.samples"
let m_table_evals = Tm.counter "statistical.table_evals"

(* Fixed fan-out width for parallel sampling: slots depend only on the
   sample count, never the pool size. *)
let sample_chunk = 32

(* One component of a gate's threshold factor at a shift [x], written to
   [dst.(k)]: exp of its [vth_log_factor] table at [x] as [Interp.eval1d]
   reads it — the edge sample beyond either end, else the segment
   [xs.(i) <= x < xs.(i+1)] found by bisection and weighted
   [(y_i *. (1. -. t)) +. (y_{i+1} *. t)] — with the same operations, and
   nothing boxed on the way. *)
let[@inline] factor_into dst k (g : Interp.grid1d) x =
  if Float.is_nan x then invalid_arg "Interp.eval1d: NaN coordinate";
  let xs = g.Interp.xs and ys = g.Interp.ys in
  let n = Array.length xs in
  let y =
    if x <= xs.(0) then ys.(0)
    else if x >= xs.(n - 1) then ys.(n - 1)
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if xs.(mid) <= x then lo := mid else hi := mid
      done;
      let i = !lo in
      let t = (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
      (ys.(i) *. (1.0 -. t)) +. (ys.(i + 1) *. t)
    end
  in
  dst.(k) <- exp y

(* One gate's term of the sample's sum, per component c
   [acc.(o + c) +. c_c *. scale_c *. factor_c]: what [Report.add] of the
   scaled components added. The loaded components come from a flat array
   at [i], the isolated ones from the entry. *)
let add_scaled_at acc o (l : float array) i (scale : Report.components) fac =
  acc.(o) <- acc.(o) +. (l.(i) *. scale.Report.isub *. fac.(0));
  acc.(o + 1) <- acc.(o + 1) +. (l.(i + 1) *. scale.Report.igate *. fac.(1));
  acc.(o + 2) <- acc.(o + 2) +. (l.(i + 2) *. scale.Report.ibtbt *. fac.(2))

let add_scaled acc o (c : Report.components) (scale : Report.components) fac =
  acc.(o) <- acc.(o) +. (c.Report.isub *. scale.Report.isub *. fac.(0));
  acc.(o + 1) <- acc.(o + 1) +. (c.Report.igate *. scale.Report.igate *. fac.(1));
  acc.(o + 2) <- acc.(o + 2) +. (c.Report.ibtbt *. scale.Report.ibtbt *. fac.(2))

let run ?(n_samples = 1000) ?(seed = 1) ?pool ~sigmas lib netlist pattern =
  if n_samples <= 0 then invalid_arg "Statistical.run: n_samples";
  (* per-gate entries and loading-aware components, resolved once *)
  let n_gates = Leakage_circuit.Netlist.gate_count netlist in
  let loaded = Array.make (3 * n_gates) 0.0 in
  let entries, _, _ =
    Estimator.estimate_fold ~init:[||]
      ~f:(fun entries g entry ~loaded:l ->
        let entries = if g = 0 then Array.make n_gates entry else entries in
        entries.(g) <- entry;
        loaded.(3 * g) <- l.(0);
        loaded.((3 * g) + 1) <- l.(1);
        loaded.((3 * g) + 2) <- l.(2);
        entries)
      lib netlist pattern
  in
  (* Every sample's stream is split off the root generator in sample order
     BEFORE any evaluation — the stream assignment is a function of (seed,
     sample index) alone, so fanning the evaluation out over a pool cannot
     change any sample and the result stays bit-identical at any pool
     size. *)
  let rng = Rng.create seed in
  let streams = Array.init n_samples (fun _ -> Rng.split rng) in
  (* The nominal reference solves are the same for every sample: solved
     once, before the fan-out, and only read by the samples. So are the
     threshold tables an entry builds on its first read. *)
  let nominal = nominal_references lib in
  Array.iter (fun e -> ignore (Characterize.vth_log_factor e)) entries;
  if Tm.enabled () then begin
    Tm.add m_samples n_samples;
    Tm.add m_table_evals (n_samples * n_gates)
  end;
  (* Per gate, the threshold draw, the factors and both columns' sums live
     in float arrays, so a gate-sample allocates nothing. *)
  let sample_at i =
    let srng = streams.(i) in
    let die = Variation.sample_die srng sigmas in
    let scale = scale_against lib nominal die in
    let fac = Array.make 3 0.0 and acc = Array.make 6 0.0 in
    let draw = Array.make 1 0.0 in
    for g = 0 to n_gates - 1 do
      let entry : Characterize.entry = entries.(g) in
      Variation.sample_gate_vth_into srng sigmas draw 0;
      let dv = die.Variation.dvth +. draw.(0) in
      let t = Characterize.vth_log_factor entry in
      factor_into fac 0 t.Characterize.d_isub dv;
      factor_into fac 1 t.Characterize.d_igate dv;
      factor_into fac 2 t.Characterize.d_ibtbt dv;
      add_scaled_at acc 0 loaded (3 * g) scale fac;
      add_scaled acc 3 entry.Characterize.nominal_isolated scale fac
    done;
    let column o =
      { Report.isub = acc.(o); igate = acc.(o + 1); ibtbt = acc.(o + 2) }
    in
    { with_loading = column 0; no_loading = column 3 }
  in
  let samples =
    match pool with
    | None -> Array.init n_samples sample_at
    | Some _ ->
      let chunks =
        Leakage_parallel.Pool.map_chunked ?pool ~chunk:sample_chunk n_samples
          (fun ~lo ~hi -> Array.init (hi - lo) (fun i -> sample_at (lo + i)))
      in
      Array.concat (Array.to_list chunks)
  in
  {
    samples;
    total_with_loading =
      Array.map (fun s -> Report.total s.with_loading) samples;
    total_no_loading = Array.map (fun s -> Report.total s.no_loading) samples;
  }

let summary r =
  (Stats.summarize r.total_with_loading, Stats.summarize r.total_no_loading)
