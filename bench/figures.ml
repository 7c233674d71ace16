(* Reproduction of every table and figure in the paper's evaluation.

   Each [figN ()] prints the same series the paper plots, with a short note
   of what the paper reports next to what this implementation measures.
   Absolute currents differ from the paper (our devices are calibrated
   analytic stand-ins for their MEDICI/BSIM4 models); the shapes and
   orderings are the reproduction target (see EXPERIMENTS.md). *)

module Params = Leakage_device.Params
module Model = Leakage_device.Model
module Physics = Leakage_device.Physics
module Variation = Leakage_device.Variation
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate
module Report = Leakage_spice.Leakage_report
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Loading = Leakage_core.Loading
module Monte_carlo = Leakage_core.Monte_carlo
module Characterize = Leakage_core.Characterize
module Testbench = Leakage_core.Testbench
module Vector_control = Leakage_incremental.Vector_control
module Dual_vth = Leakage_incremental.Dual_vth
module Suite = Leakage_benchmarks.Suite
module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats
module Interp = Leakage_numeric.Interp
module Pool = Leakage_parallel.Pool

let na = Physics.amps_to_nanoamps
let temp_room = 300.0

(* Worker pool shared by the pool-aware figures (fig10/fig11,
   probabilistic). Set from main's -j flag. Every consumer keeps a
   fixed reduction tree, so the printed figure data is bit-identical with or
   without a pool — the `selfcheck` figure enforces exactly that. The timing
   figures (fig12, runtime) stay sequential on purpose: their columns measure
   single-stream solver/estimator cost and would only report scheduler
   contention under a pool. *)
let pool : Pool.t option ref = ref None

(* Paper-scale runs (100 vectors, 10k MC samples) are behind this switch;
   the default is sized to finish the whole suite in a couple of minutes. *)
let full_scale =
  match Sys.getenv_opt "LEAKAGE_BENCH_FULL" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let header title note =
  Format.printf "@.=== %s ===@." title;
  Format.printf "%s@." note

let sweep_currents = Interp.linspace 0.0 3.0e-6 13

(* ------------------------------------------------------------- Figure 4 *)

let fig4a () =
  header "Fig 4a: leakage components vs halo dose (off NMOS, D50)"
    "paper: subthreshold falls, BTBT rises, gate flat as halo dose grows";
  let d50 = Params.d50 in
  Format.printf "%10s %12s %12s %12s@." "halo[x]" "Isub[nA]" "Igate[nA]" "Ibtbt[nA]";
  Array.iter
    (fun halo ->
      let d = Params.with_halo d50 halo in
      let s, g, b =
        Model.off_state_leakage d Params.Nmos ~w:1.0 ~temp:temp_room
          ~vdd:d.Params.vdd
      in
      Format.printf "%10.2f %12.2f %12.2f %12.2f@." halo (na s) (na g) (na b))
    (Interp.linspace 0.6 1.6 11)

let fig4b () =
  header "Fig 4b: leakage components vs oxide thickness (off NMOS, D50)"
    "paper: gate tunneling explodes as Tox thins; thicker Tox worsens SCE \
     (more subthreshold); BTBT flat";
  let d50 = Params.d50 in
  Format.printf "%10s %12s %12s %12s@." "Tox[nm]" "Isub[nA]" "Igate[nA]" "Ibtbt[nA]";
  Array.iter
    (fun tox ->
      let d = Params.with_tox d50 tox in
      let s, g, b =
        Model.off_state_leakage d Params.Nmos ~w:1.0 ~temp:temp_room
          ~vdd:d.Params.vdd
      in
      Format.printf "%10.2f %12.2f %12.2f %12.2f@." tox (na s) (na g) (na b))
    (Interp.linspace 0.9 1.5 7)

let fig4c () =
  header "Fig 4c: leakage components vs temperature (off NMOS, D50)"
    "paper: gate+BTBT dominate at 300 K; subthreshold grows exponentially \
     and dominates when hot; gate flat; BTBT marginal";
  let d50 = Params.d50 in
  Format.printf "%10s %12s %12s %12s@." "T[K]" "Isub[nA]" "Igate[nA]" "Ibtbt[nA]";
  Array.iter
    (fun temp ->
      let s, g, b =
        Model.off_state_leakage d50 Params.Nmos ~w:1.0 ~temp
          ~vdd:d50.Params.vdd
      in
      Format.printf "%10.0f %12.2f %12.2f %12.2f@." temp (na s) (na g) (na b))
    (Interp.linspace 300.0 420.0 7)

(* ------------------------------------------------------------- Figure 5 *)

let print_ld_series pts =
  Format.printf "%12s %10s %10s %10s %10s@." "I_L[nA]" "LD_sub%" "LD_gate%"
    "LD_btbt%" "LD_tot%";
  Array.iter
    (fun (p : Loading.ld_point) ->
      Format.printf "%12.0f %+10.3f %+10.3f %+10.3f %+10.3f@."
        (na p.Loading.current) p.Loading.ld_sub p.Loading.ld_gate
        p.Loading.ld_btbt p.Loading.ld_total)
    pts

let fig5 () =
  let device = Params.d25 in
  header "Fig 5a/b: inverter loading effect, input '0' / output '1'"
    "paper: LD_IN raises subthreshold (strongest), trims gate, leaves BTBT; \
     LD_OUT reduces all three";
  Format.printf "-- (a) input loading:@.";
  print_ld_series
    (Loading.input_sweep ~device ~temp:temp_room ~currents:sweep_currents
       Gate.Inv [| Logic.Zero |]);
  Format.printf "-- (b) output loading:@.";
  print_ld_series
    (Loading.output_sweep ~device ~temp:temp_room ~currents:sweep_currents
       Gate.Inv [| Logic.Zero |]);
  header "Fig 5c/d: inverter loading effect, input '1' / output '0'"
    "paper: same signs, weaker LD_IN than input '0', stronger LD_OUT \
     (PMOS junction/Vds sensitivity)";
  Format.printf "-- (c) input loading:@.";
  print_ld_series
    (Loading.input_sweep ~device ~temp:temp_room ~currents:sweep_currents
       Gate.Inv [| Logic.One |]);
  Format.printf "-- (d) output loading:@.";
  print_ld_series
    (Loading.output_sweep ~device ~temp:temp_room ~currents:sweep_currents
       Gate.Inv [| Logic.One |])

(* ------------------------------------------------------------- Figure 6 *)

let fig6 () =
  let device = Params.d25 in
  header "Fig 6: LD_ALL(I_L-IN, I_L-OUT) surface for an inverter"
    "paper: LD_ALL grows with input loading, shrinks with output loading; \
     overall higher with input '0'";
  let grid = Interp.linspace 0.0 3.0e-6 5 in
  List.iter
    (fun input_value ->
      Format.printf "-- input '%c':@." (Logic.to_char input_value);
      Format.printf "%14s" "in\\out[nA]";
      Array.iter (fun o -> Format.printf "%10.0f" (na o)) grid;
      Format.printf "@.";
      Array.iter
        (fun i_in ->
          Format.printf "%14.0f" (na i_in);
          Array.iter
            (fun i_out ->
              let p =
                Loading.combined ~device ~temp:temp_room ~input_current:i_in
                  ~output_current:i_out Gate.Inv [| input_value |]
              in
              Format.printf "%+10.3f" p.Loading.ld_total)
            grid;
          Format.printf "@.")
        grid)
    [ Logic.Zero; Logic.One ]

(* ------------------------------------------------------------- Figure 7 *)

let fig7 () =
  let device = Params.d25 in
  header "Fig 7: NAND2 loading effect per input vector"
    "paper: input loading strongest when an NMOS is off ('01'/'10'), damped \
     by stacking at '00'; output loading strongest with output '0' ('11')";
  List.iter
    (fun vector ->
      let v = Logic.vector_of_string vector in
      let out = Gate.eval_logic (Gate.Nand 2) v in
      Format.printf "-- vector %s (output '%c'):@." vector (Logic.to_char out);
      let at pts = (pts : Loading.ld_point array).(Array.length pts - 1) in
      let pin0 =
        at (Loading.input_sweep ~device ~temp:temp_room ~pin:0
              ~currents:sweep_currents (Gate.Nand 2) v)
      in
      let pin1 =
        at (Loading.input_sweep ~device ~temp:temp_room ~pin:1
              ~currents:sweep_currents (Gate.Nand 2) v)
      in
      let out_sw =
        at (Loading.output_sweep ~device ~temp:temp_room
              ~currents:sweep_currents (Gate.Nand 2) v)
      in
      Format.printf
        "   LD_total at 3 uA: input-1 %+.3f%%  input-2 %+.3f%%  output %+.3f%%@."
        pin0.Loading.ld_total pin1.Loading.ld_total out_sw.Loading.ld_total)
    [ "00"; "01"; "10"; "11" ]

(* ------------------------------------------------------------- Figure 8 *)

let fig8 () =
  header "Fig 8: loading effect across device flavours (inverter)"
    "paper: D25-S (sub-dominated) reacts most to input loading; D25-JN \
     (junction-dominated) most to output loading; D25-G (gate-dominated) \
     least to both";
  let flavours =
    [ ("D25-S", Params.d25_s); ("D25-G", Params.d25_g); ("D25-JN", Params.d25_jn) ]
  in
  List.iter
    (fun (input_value, tag) ->
      Format.printf "-- input '%c' (%s):@." (Logic.to_char input_value) tag;
      Format.printf "%10s %16s %16s@." "device" "LD_IN@3uA[%]" "LD_OUT@3uA[%]";
      List.iter
        (fun (name, device) ->
          let last pts = (pts : Loading.ld_point array).(Array.length pts - 1) in
          let ld_in =
            (last (Loading.input_sweep ~device ~temp:temp_room
                     ~currents:sweep_currents Gate.Inv [| input_value |]))
              .Loading.ld_total
          in
          let ld_out =
            (last (Loading.output_sweep ~device ~temp:temp_room
                     ~currents:sweep_currents Gate.Inv [| input_value |]))
              .Loading.ld_total
          in
          Format.printf "%10s %+16.3f %+16.3f@." name ld_in ld_out)
        flavours)
    [ (Logic.Zero, "paper Fig 8a/b"); (Logic.One, "paper Fig 8c/d") ]

(* ------------------------------------------------------------- Figure 9 *)

let fig9 () =
  header "Fig 9: LD_ALL vs temperature (inverter, input '0', eq-3 normalization)"
    "paper: subthreshold LD grows strongly with T, gate/BTBT LD grow more \
     negative, total LD changes moderately (components move oppositely)";
  let device = Params.d25 in
  let pts =
    Loading.temperature_sweep ~device
      ~temps_celsius:(Interp.linspace 0.0 150.0 7)
      ~input_current:1.0e-6 ~output_current:1.0e-6 Gate.Inv [| Logic.Zero |]
  in
  Format.printf "%8s %10s %10s %10s %10s@." "T[C]" "LD_sub%" "LD_gate%"
    "LD_btbt%" "LD_tot%";
  Array.iter
    (fun (c, (p : Loading.ld_point)) ->
      Format.printf "%8.0f %+10.3f %+10.3f %+10.3f %+10.3f@." c p.Loading.ld_sub
        p.Loading.ld_gate p.Loading.ld_btbt p.Loading.ld_total)
    pts

(* ------------------------------------------------------------ Figure 10 *)

let mc_samples () = if full_scale then 10_000 else 2_000

let fig10 () =
  header "Fig 10: Monte-Carlo component distributions with/without loading"
    (Printf.sprintf
       "paper: 10,000 samples, 6+6 loading inverters; loading visibly shifts \
        the subthreshold distribution (running %d samples%s)"
       (mc_samples ())
       (if full_scale then "" else "; LEAKAGE_BENCH_FULL=1 for 10k"));
  let device = Params.d25 in
  let config =
    { Monte_carlo.paper_config with Monte_carlo.n_samples = mc_samples () }
  in
  let samples =
    Monte_carlo.run ?pool:!pool ~config ~device ~temp:temp_room
      ~sigmas:Variation.paper_sigmas ()
  in
  let show name pick =
    let loaded, unloaded = Monte_carlo.component_arrays samples ~pick in
    let sl = Stats.summarize loaded and su = Stats.summarize unloaded in
    Format.printf
      "%-14s no-load mean %9.1f std %9.1f | loaded mean %9.1f std %9.1f nA@."
      name (na su.Stats.mean) (na su.Stats.std) (na sl.Stats.mean)
      (na sl.Stats.std);
    (* compact shared-axis histogram pair *)
    let lo, hi =
      let l1, h1 = Stats.min_max loaded and l2, h2 = Stats.min_max unloaded in
      (Float.min l1 l2, Float.max h1 h2)
    in
    let hist a = Stats.histogram_in ~lo ~hi:(hi +. 1e-15) ~bins:10 a in
    let line tag h =
      Format.printf "  %-9s" tag;
      Array.iter (fun c -> Format.printf "%6d" c) (hist h).Stats.counts;
      Format.printf "@."
    in
    line "no-load" unloaded;
    line "loaded" loaded
  in
  show "subthreshold" (fun c -> c.Report.isub);
  show "gate" (fun c -> c.Report.igate);
  show "junction" (fun c -> c.Report.ibtbt);
  show "total" Report.total

(* ------------------------------------------------------------ Figure 11 *)

let fig11 () =
  header "Fig 11: loading shift of total-leakage mean and sigma vs sigma(Vth,inter)"
    "paper: both grow with inter-die spread; sigma grows faster than the mean";
  let device = Params.d25 in
  let config =
    { Monte_carlo.paper_config with
      Monte_carlo.n_samples = (if full_scale then 10_000 else 1_500) }
  in
  let shifts =
    Monte_carlo.spread_vs_sigma ?pool:!pool ~config ~device ~temp:temp_room
      ~base_sigmas:Variation.paper_sigmas
      ~sigma_vth_inter_values:[| 0.030; 0.040; 0.050 |] ()
  in
  Format.printf "%14s %16s %16s@." "sigmaVt[mV]" "mean shift[%]" "std shift[%]";
  Array.iter
    (fun (s : Monte_carlo.spread_shift) ->
      Format.printf "%14.0f %+16.3f %+16.3f@."
        (s.Monte_carlo.sigma_vth_inter *. 1000.0)
        s.Monte_carlo.mean_shift_percent s.Monte_carlo.std_shift_percent)
    shifts

(* ------------------------------------------------------------ Figure 12 *)

let vectors_for label =
  if full_scale then 100
  else
    match label with
    | "s13207" -> 3
    | "s9234" -> 5
    | "s5378" -> 10
    | _ -> 20

type fig12_row = {
  label : string;
  spice_total : float;        (* A, mean over vectors *)
  est_total : float;
  avg_shift : Report.components;   (* percent per component, mean *)
  avg_shift_total : float;
  max_shift : Report.components;   (* percent per component, max over vectors *)
  max_shift_total : float;
  t_spice : float;
  t_est : float;
}

let fig12_row lib device label =
  let nl = (Suite.find label).Suite.build () in
  let n = vectors_for label in
  let rng = Rng.create 0xF12 in
  let patterns = Simulate.random_patterns rng nl n in
  (* Warm the characterization cache over the whole vector set so the timing
     columns measure the steady-state per-vector cost, not one-off table
     building triggered by late-appearing (cell, state) pairs. *)
  List.iter (fun p -> ignore (Estimator.estimate lib nl p)) patterns;
  let zero = Report.zero in
  let sum_spice = ref zero and sum_est = ref zero in
  let sum_shift = ref zero and sum_shift_total = ref 0.0 in
  let max_shift = ref zero and max_shift_total = ref 0.0 in
  let t_spice = ref 0.0 and t_est = ref 0.0 in
  List.iter
    (fun pattern ->
      let t0 = Unix.gettimeofday () in
      let est = Estimator.estimate lib nl pattern in
      t_est := !t_est +. (Unix.gettimeofday () -. t0);
      let t0 = Unix.gettimeofday () in
      let spice, _, _ =
        Report.analyze ~device ~temp:temp_room nl pattern
      in
      t_spice := !t_spice +. (Unix.gettimeofday () -. t0);
      sum_spice := Report.add !sum_spice spice.Report.totals;
      sum_est := Report.add !sum_est est.Estimator.totals;
      let pct part whole = abs_float ((part -. whole) /. whole *. 100.0) in
      let base = est.Estimator.baseline_totals in
      let with_l = est.Estimator.totals in
      let shift = {
        Report.isub = pct with_l.Report.isub base.Report.isub;
        igate = pct with_l.Report.igate base.Report.igate;
        ibtbt = pct with_l.Report.ibtbt base.Report.ibtbt;
      } in
      let shift_total = pct (Report.total with_l) (Report.total base) in
      sum_shift := Report.add !sum_shift shift;
      sum_shift_total := !sum_shift_total +. shift_total;
      max_shift := {
        Report.isub = Float.max !max_shift.Report.isub shift.Report.isub;
        igate = Float.max !max_shift.Report.igate shift.Report.igate;
        ibtbt = Float.max !max_shift.Report.ibtbt shift.Report.ibtbt;
      };
      max_shift_total := Float.max !max_shift_total shift_total)
    patterns;
  let inv_n = 1.0 /. float_of_int n in
  {
    label;
    spice_total = Report.total !sum_spice *. inv_n;
    est_total = Report.total !sum_est *. inv_n;
    avg_shift = Report.scale inv_n !sum_shift;
    avg_shift_total = !sum_shift_total *. inv_n;
    max_shift = !max_shift;
    max_shift_total = !max_shift_total;
    t_spice = !t_spice;
    t_est = !t_est;
  }

let fig12_rows = ref None

let compute_fig12 () =
  match !fig12_rows with
  | Some rows -> rows
  | None ->
    let device = Params.d25 in
    let lib = Library.create ~device ~temp:temp_room () in
    let rows = List.map (fig12_row lib device) Suite.names in
    fig12_rows := Some rows;
    rows

let fig12a () =
  header "Fig 12a: estimated vs transistor-level ('SPICE') total leakage"
    (Printf.sprintf
       "paper: estimator matches SPICE closely on all 8 circuits (%s random \
        vectors per circuit)"
       (if full_scale then "100" else "3-20"));
  let rows = compute_fig12 () in
  Format.printf "%-10s %16s %16s %12s %10s@." "circuit" "SPICE[uA]" "est[uA]"
    "power[uW]" "err[%]";
  List.iter
    (fun r ->
      Format.printf "%-10s %16.2f %16.2f %12.2f %+10.3f@." r.label
        (r.spice_total *. 1e6) (r.est_total *. 1e6)
        (r.spice_total *. Params.d25.Params.vdd *. 1e6)
        ((r.est_total -. r.spice_total) /. r.spice_total *. 100.0))
    rows

let fig12b () =
  header "Fig 12b: average % leakage variation due to loading"
    "paper: subthreshold shifts most (~8%), then BTBT (~4.5%), then gate \
     (~3.6%); total ~5% (cancellation) — same ordering expected at our \
     smaller absolute loading";
  let rows = compute_fig12 () in
  Format.printf "%-10s %10s %10s %10s %10s@." "circuit" "sub[%]" "gate[%]"
    "btbt[%]" "total[%]";
  List.iter
    (fun r ->
      Format.printf "%-10s %10.3f %10.3f %10.3f %10.3f@." r.label
        r.avg_shift.Report.isub r.avg_shift.Report.igate
        r.avg_shift.Report.ibtbt r.avg_shift_total)
    rows

let fig12c () =
  header "Fig 12c: maximum % leakage variation over the vector set"
    "paper: maxima a few points above the averages, same component ordering";
  let rows = compute_fig12 () in
  Format.printf "%-10s %10s %10s %10s %10s@." "circuit" "sub[%]" "gate[%]"
    "btbt[%]" "total[%]";
  List.iter
    (fun r ->
      Format.printf "%-10s %10.3f %10.3f %10.3f %10.3f@." r.label
        r.max_shift.Report.isub r.max_shift.Report.igate
        r.max_shift.Report.ibtbt r.max_shift_total)
    rows

let runtime_table () =
  header "Runtime: estimator vs transistor-level solve (the ~1000x claim)"
    "paper: the estimator is ~1000x faster than SPICE; our reference solver \
     is itself much faster than SPICE, so the ratio below understates the \
     advantage over a real circuit simulator";
  let rows = compute_fig12 () in
  Format.printf "%-10s %14s %14s %12s@." "circuit" "solver[s]" "estimator[s]"
    "speedup[x]";
  List.iter
    (fun r ->
      Format.printf "%-10s %14.3f %14.4f %12.0f@." r.label r.t_spice r.t_est
        (r.t_spice /. Float.max 1e-9 r.t_est))
    rows

(* ------------------------------------------------------------ Ablations *)

let ablation_superposition () =
  header "Ablation: per-pin superposition (eq 5) vs exact joint loading"
    "DESIGN.md: the estimator sums per-pin 1-D tables; Fig 6's cross terms \
     are small, so the superposition error should sit well below 1%";
  let device = Params.d25 in
  let grid = Interp.linspace (-2.4e-6) 2.4e-6 5 in
  List.iter
    (fun input_value ->
      let v = [| input_value |] in
      let entry =
        Characterize.characterize ~device ~temp:temp_room Gate.Inv v
      in
      let tb = Testbench.make Gate.Inv v in
      let bench = Testbench.compile ~device ~temp:temp_room tb in
      let worst = ref 0.0 in
      Array.iter
        (fun i_in ->
          Array.iter
            (fun i_out ->
              let exact =
                (Testbench.solve
                   ~injections:[ (tb.Testbench.pin_nets.(0), i_in);
                                 (tb.Testbench.out_net, i_out) ]
                   bench)
                  .Testbench.leakage
              in
              let out = Array.make 3 0.0 in
              ignore
                (Characterize.apply entry ~loading:[| i_in; i_out |] ~out);
              let approx = out.(0) +. out.(1) +. out.(2) in
              let err =
                abs_float
                  ((approx -. Report.total exact)
                   /. Report.total exact *. 100.0)
              in
              worst := Float.max !worst err)
            grid)
        grid;
      Format.printf "  input '%c': max superposition error %.4f%%@."
        (Logic.to_char input_value) !worst)
    [ Logic.Zero; Logic.One ]

let ablation_grid () =
  header "Ablation: characterization grid density vs estimator accuracy"
    "DESIGN.md: table resolution is a cost/accuracy knob; the response is \
     smooth so coarse grids should already be accurate";
  let device = Params.d25 in
  let nl = (Suite.find "s838").Suite.build () in
  let rng = Rng.create 99 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let spice, _, _ = Report.analyze ~device ~temp:temp_room nl pattern in
  let reference = Report.total spice.Report.totals in
  List.iter
    (fun points ->
      let lib =
        Library.create
          ~grid:{ Characterize.max_current = 3.0e-6; points }
          ~device ~temp:temp_room ()
      in
      let est = Estimator.estimate lib nl pattern in
      Format.printf "  %2d-point tables: error vs solver %+.4f%%@." points
        ((Report.total est.Estimator.totals -. reference) /. reference *. 100.0))
    [ 3; 5; 9; 21 ]

let ablation_one_level () =
  header "Ablation: propagation depth of the loading model"
    "paper §6: loading barely propagates beyond one level. Zero-level = the \
     traditional no-loading sum; pass N re-evaluates pin currents under the \
     previous pass's loading, adding one level of propagation each time";
  let device = Params.d25 in
  let lib = Library.create ~device ~temp:temp_room () in
  List.iter
    (fun label ->
      let nl = (Suite.find label).Suite.build () in
      let rng = Rng.create 5 in
      let pattern = List.hd (Simulate.random_patterns rng nl 1) in
      let spice, _, _ = Report.analyze ~device ~temp:temp_room nl pattern in
      let reference = Report.total spice.Report.totals in
      let err v = abs_float ((v -. reference) /. reference *. 100.0) in
      let est1 = Estimator.estimate lib nl pattern in
      let est2 = Estimator.estimate ~passes:2 lib nl pattern in
      let est3 = Estimator.estimate ~passes:3 lib nl pattern in
      Format.printf
        "  %-8s err: zero-level %6.3f%% | 1 pass %6.3f%% | 2 passes %6.3f%% | 3 passes %6.3f%%@."
        label
        (err (Report.total est1.Estimator.baseline_totals))
        (err (Report.total est1.Estimator.totals))
        (err (Report.total est2.Estimator.totals))
        (err (Report.total est3.Estimator.totals)))
    [ "s838"; "s1196"; "alu88"; "mult88" ]

(* ---------------------------------------------------- min-vector change *)

let vectors_experiment () =
  header "Input-vector control under loading (§6)"
    "paper: the minimum-leakage vector can change when loading is modeled";
  let device = Params.d25 in
  let lib = Library.create ~device ~temp:temp_room () in
  List.iter
    (fun label ->
      let nl = (Suite.find label).Suite.build () in
      let c =
        Vector_control.compare_objectives ~samples:64 ~seed:3 lib nl
      in
      Format.printf
        "  %-8s min(loading) %.1f uA | min(traditional) re-costed %.1f uA | changed: %b@."
        label
        (c.Vector_control.with_loading.Vector_control.total *. 1e6)
        (c.Vector_control.without_under_loading *. 1e6)
        c.Vector_control.changed)
    [ "alu88"; "s838" ]

let extension_statistical () =
  header "Extension: circuit-level statistical leakage (fast MC)"
    "beyond the paper: Figs 10/11 done for whole circuits at estimator speed      via characterized threshold log-sensitivities (validated against the      transistor-level MC in the test suite)";
  let device = Params.d25 in
  let lib = Library.create ~device ~temp:temp_room () in
  List.iter
    (fun label ->
      let nl = (Suite.find label).Suite.build () in
      let rng = Rng.create 31 in
      let pattern = List.hd (Simulate.random_patterns rng nl 1) in
      let n = if full_scale then 10_000 else 2_000 in
      let r =
        Leakage_core.Statistical.run ~n_samples:n ~seed:7
          ~sigmas:Variation.paper_sigmas lib nl pattern
      in
      let loaded, unloaded = Leakage_core.Statistical.summary r in
      Format.printf
        "  %-8s mean %8.1f uA (sigma %7.1f) | no-loading mean %8.1f (sigma %7.1f) | mean shift %+5.2f%% sigma shift %+5.2f%%@."
        label
        (loaded.Stats.mean *. 1e6) (loaded.Stats.std *. 1e6)
        (unloaded.Stats.mean *. 1e6) (unloaded.Stats.std *. 1e6)
        ((loaded.Stats.mean -. unloaded.Stats.mean) /. unloaded.Stats.mean *. 100.0)
        ((loaded.Stats.std -. unloaded.Stats.std) /. unloaded.Stats.std *. 100.0))
    [ "s838"; "s1423"; "alu88" ]

let extension_mtcmos () =
  header "Extension: MTCMOS power gating (transistor-level)"
    "beyond the paper: sleep-transistor standby analysis with the virtual      ground solved as a circuit unknown — the circuit-level form of the      stacking effect of [8]/[9]";
  let device = Params.d25 in
  List.iter
    (fun label ->
      let nl = (Suite.find label).Suite.build () in
      let rng = Rng.create 17 in
      let pattern = List.hd (Simulate.random_patterns rng nl 1) in
      let r = Leakage_core.Mtcmos.analyze ~device ~temp:temp_room nl pattern in
      Format.printf
        "  %-8s ungated %8.1f uA | active %8.1f uA (vgnd %5.1f mV, %+5.1f%%) | standby %8.1f uA (vgnd %5.0f mV, -%4.1f%%)@."
        label
        (Report.total r.Leakage_core.Mtcmos.ungated *. 1e6)
        (Report.total r.Leakage_core.Mtcmos.active.Leakage_core.Mtcmos.leakage *. 1e6)
        (r.Leakage_core.Mtcmos.active.Leakage_core.Mtcmos.virtual_ground *. 1e3)
        r.Leakage_core.Mtcmos.active_overhead_percent
        (Report.total r.Leakage_core.Mtcmos.standby.Leakage_core.Mtcmos.leakage *. 1e6)
        (r.Leakage_core.Mtcmos.standby.Leakage_core.Mtcmos.virtual_ground *. 1e3)
        r.Leakage_core.Mtcmos.standby_reduction_percent)
    [ "alu88"; "s838" ]

let extension_dualvth () =
  header "Extension: dual-Vth assignment (slack-based)"
    "beyond the paper: timing-noncritical gates moved to +80 mV threshold,      evaluated with per-gate libraries in the loading-aware estimator";
  let device = Params.d25 in
  let low_lib = Library.create ~device ~temp:temp_room () in
  let high_device = Leakage_incremental.Dual_vth.high_vth_device device in
  let high_lib =
    Library.create ~device:high_device ~temp:temp_room
      ~vdd:device.Params.vdd ()
  in
  List.iter
    (fun label ->
      let nl = (Suite.find label).Suite.build () in
      let rng = Rng.create 17 in
      let pattern = List.hd (Simulate.random_patterns rng nl 1) in
      let assignment =
        Leakage_incremental.Dual_vth.slack_assignment ~critical_margin:1 nl
      in
      let e =
        Dual_vth.evaluate ~low_lib ~high_lib assignment nl pattern
      in
      Format.printf
        "  %-8s %4d/%4d gates high-Vth -> leakage %8.1f -> %8.1f uA (-%.1f%%)@."
        label e.Leakage_incremental.Dual_vth.n_high (Netlist.gate_count nl)
        (Report.total e.Leakage_incremental.Dual_vth.baseline *. 1e6)
        (Report.total e.Leakage_incremental.Dual_vth.totals *. 1e6)
        e.Leakage_incremental.Dual_vth.reduction_percent)
    [ "alu88"; "s838"; "s1423" ]

let extension_thermal () =
  header "Extension: leakage-temperature self-consistency"
    "beyond the paper: junction temperature with leakage-power feedback;      the knee toward thermal runaway is the sustainable packaging limit";
  let device = Params.d25 in
  let nl = (Suite.find "alu88").Suite.build () in
  let rng = Rng.create 17 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  Array.iter
    (fun (r_theta, outcome) ->
      match outcome with
      | Leakage_core.Thermal.Converged op ->
        Format.printf "  R = %8.0f K/W -> T = %6.2f C, leakage %8.2f uW@."
          r_theta
          (Physics.kelvin_to_celsius op.Leakage_core.Thermal.temperature)
          (op.Leakage_core.Thermal.leakage_power *. 1e6)
      | Leakage_core.Thermal.Runaway { last_temp; _ } ->
        Format.printf "  R = %8.0f K/W -> THERMAL RUNAWAY (passed %.0f C)@."
          r_theta
          (Physics.kelvin_to_celsius last_temp))
    (Leakage_core.Thermal.temperature_profile ~device
       ~r_theta_values:[| 100.0; 10_000.0; 200_000.0 |] nl pattern)

let extension_probabilistic () =
  header "Extension: closed-form average leakage from signal probabilities"
    "beyond the paper: the 100-random-vector averages computed analytically      (independence assumption; exact on tree circuits)";
  let device = Params.d25 in
  let lib = Library.create ~device ~temp:temp_room () in
  List.iter
    (fun label ->
      let nl = (Suite.find label).Suite.build () in
      let analytic = Leakage_core.Probabilistic.expected_leakage lib nl in
      let rng = Rng.create 17 in
      let n = if full_scale then 100 else 15 in
      let empirical, _ =
        Estimator.average_over_vectors ?pool:!pool lib nl
          (Simulate.random_patterns rng nl n)
      in
      Format.printf
        "  %-8s analytic %8.1f uA vs %d-vector average %8.1f uA (%+.2f%%)@."
        label
        (Report.total analytic.Leakage_core.Probabilistic.totals *. 1e6)
        n
        (Report.total empirical *. 1e6)
        ((Report.total analytic.Leakage_core.Probabilistic.totals
          -. Report.total empirical)
         /. Report.total empirical *. 100.0))
    [ "alu88"; "s838" ]

(* ------------------------------------------------------------ self-check *)

(* Recompute a representative slice of every pool-aware dataset sequentially
   and on 2- and 3-domain pools, requiring bit identity (structural compare,
   so even a NaN would have to match bit patterns through its payload class).
   This is what lets `main.exe -j N` claim the same figures as a sequential
   run. Sample counts are deliberately small: identity either holds at every
   size or the reduction tree is broken, and the tree is fixed by chunk
   constants, not by N. *)
let selfcheck () =
  header "Self-check: pooled figure data vs sequential"
    "every ?pool consumer folds a schedule-independent reduction tree, so \
     the domain count must not change a single bit of figure data";
  let device = Params.d25 in
  let lib = Library.create ~device ~temp:temp_room () in
  let saved = !pool in
  let compute name f =
    pool := None;
    let seq = f () in
    List.iter
      (fun jobs ->
        let par = Pool.with_pool ~jobs (fun p -> pool := Some p; f ()) in
        pool := saved;
        if Stdlib.compare par seq <> 0 then
          failwith (Printf.sprintf "selfcheck: %S differs at %d domains" name jobs))
      [ 2; 3 ];
    pool := saved;
    Format.printf "  %-28s bit-identical at 1/2/3 domains@." name
  in
  let mc_config =
    { Monte_carlo.paper_config with Monte_carlo.n_samples = 64 }
  in
  compute "fig10 MC samples" (fun () ->
      Monte_carlo.run ?pool:!pool ~config:mc_config ~device ~temp:temp_room
        ~sigmas:Variation.paper_sigmas ());
  compute "fig11 spread-vs-sigma" (fun () ->
      Monte_carlo.spread_vs_sigma ?pool:!pool ~config:mc_config ~device
        ~temp:temp_room ~base_sigmas:Variation.paper_sigmas
        ~sigma_vth_inter_values:[| 0.030; 0.050 |] ());
  compute "probabilistic average (s838)" (fun () ->
      let nl = (Suite.find "s838").Suite.build () in
      Estimator.average_over_vectors ?pool:!pool lib nl
        (Simulate.random_patterns (Rng.create 17) nl 24))

let all : (string * (unit -> unit)) list =
  [ ("fig4a", fig4a); ("fig4b", fig4b); ("fig4c", fig4c); ("fig5", fig5);
    ("fig6", fig6); ("fig7", fig7); ("fig8", fig8); ("fig9", fig9);
    ("fig10", fig10); ("fig11", fig11); ("fig12a", fig12a);
    ("fig12b", fig12b); ("fig12c", fig12c); ("runtime", runtime_table);
    ("statistical", extension_statistical);
    ("mtcmos", extension_mtcmos);
    ("dualvth", extension_dualvth);
    ("thermal", extension_thermal);
    ("probabilistic", extension_probabilistic);
    ("ablation-superposition", ablation_superposition);
    ("ablation-grid", ablation_grid); ("ablation-onelevel", ablation_one_level);
    ("vectors", vectors_experiment); ("selfcheck", selfcheck) ]
