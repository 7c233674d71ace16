(* leakctl: command-line front end for the loading-aware leakage estimator.

   Subcommands: list, stats, generate, estimate, characterize, sweep, mc,
   vectors, incr, serve, client, ... Run `leakctl --help` or
   `leakctl CMD --help`. *)

open Cmdliner

module Params = Leakage_device.Params
module Physics = Leakage_device.Physics
module Variation = Leakage_device.Variation
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate
module Bench_format = Leakage_circuit.Bench_format
module Spice_format = Leakage_circuit.Spice_format
module Snapshot = Leakage_circuit.Snapshot
module Report = Leakage_spice.Leakage_report
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Loading = Leakage_core.Loading
module Monte_carlo = Leakage_core.Monte_carlo
module Vector_control = Leakage_incremental.Vector_control
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Characterize = Leakage_core.Characterize
module Sensitivity = Leakage_core.Sensitivity
module Suite = Leakage_benchmarks.Suite
module Iscas = Leakage_benchmarks.Iscas
module Reporting = Leakage_core.Reporting
module Verilog = Leakage_circuit.Verilog
module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats
module Pool = Leakage_parallel.Pool
module Telemetry = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace
module Tlog = Leakage_telemetry.Log
module Json = Leakage_telemetry.Json
module Top_view = Leakage_server.Top_view

let na = Physics.amps_to_nanoamps

(* ------------------------------------------------------- shared options *)

let device_conv =
  let parse s =
    match Params.of_name s with
    | Some d -> Ok d
    | None -> Error (`Msg ("unknown device " ^ s))
  in
  let print ppf (d : Params.t) = Format.fprintf ppf "%s" d.Params.name in
  Arg.conv (parse, print)

let device_arg =
  Arg.(value & opt device_conv Params.d25
       & info [ "device" ] ~docv:"DEV"
           ~doc:"Device corner: d25, d50, d25-s, d25-g, d25-jn (any case, \
                 dashes optional).")

let temp_arg =
  Arg.(value & opt float 27.0
       & info [ "temp" ] ~docv:"CELSIUS" ~doc:"Temperature in Celsius.")

(* The operating corner: a device at a temperature, kept in both units. *)
type corner = { device : Params.t; celsius : float; temp : float }

let corner_arg =
  let make device celsius =
    { device; celsius; temp = Physics.celsius_to_kelvin celsius }
  in
  Term.(const make $ device_arg $ temp_arg)

let library ?vdd c = Library.create ~device:c.device ~temp:c.temp ?vdd ()

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let circuit_arg =
  Arg.(value & opt (some string) None
       & info [ "circuit" ] ~docv:"NAME"
           ~doc:"Benchmark circuit name (see `leakctl list`).")

let bench_file_arg =
  Arg.(value & opt (some file) None
       & info [ "bench" ] ~docv:"FILE"
           ~doc:"Netlist file, dispatched on extension: .bench (ISCAS89), \
                 .sp/.cir/.spice (structural SPICE subset), or .lkn (binary \
                 snapshot, see $(b,leakctl snapshot)).")

(* One ingestion point for every front-end: the extension picks the
   parser. *)
let parse_netlist_file path =
  match String.lowercase_ascii (Filename.extension path) with
  | ".lkn" -> Snapshot.load path
  | ".sp" | ".cir" | ".spice" -> Spice_format.parse_file path
  | _ -> Bench_format.parse_file path

let output_file_arg doc =
  Arg.(required & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* A count: zero or less is a usage error (exit 124), like a bad --device. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg ("invalid value '" ^ s ^ "', expected an integer > 0"))
  in
  Arg.conv (parse, Format.pp_print_int)

let vectors_arg doc =
  Arg.(value & opt positive_int 10 & info [ "vectors" ] ~docv:"N" ~doc)

let samples_arg default =
  Arg.(value & opt positive_int default
       & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo sample count.")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the parallel sections. 0 (the default) \
                 means the $(b,LEAKCTL_JOBS) environment variable, or the \
                 machine's recommended domain count.")

(* Results are bit-identical at any job count, so -j only changes speed. *)
let with_jobs jobs f =
  let jobs = if jobs <= 0 then Pool.default_jobs () else jobs in
  if jobs <= 1 then f None
  else Pool.with_pool ~jobs (fun pool -> f (Some pool))

let load_circuit circuit bench_file =
  match circuit, bench_file with
  | Some name, None -> (Suite.find name).Suite.build ()
  | None, Some path -> parse_netlist_file path
  | Some _, Some _ -> failwith "give either --circuit or --bench, not both"
  | None, None -> failwith "a circuit is required: --circuit NAME or --bench FILE"

(* The netlist a command reads, from --circuit or --bench. Cmdliner
   evaluates a term's arguments left to right, so this one goes last: every
   other flag is checked before the netlist loads. *)
let netlist_arg = Term.(const load_circuit $ circuit_arg $ bench_file_arg)

(* The commands that study one input vector take the first one a seeded
   generator draws. *)
let first_pattern rng nl = List.hd (Simulate.random_patterns rng nl 1)

let pp_components tag c =
  Format.printf "  %-24s sub %10.1f  gate %10.1f  btbt %10.1f  total %10.1f nA@."
    tag (na c.Report.isub) (na c.Report.igate) (na c.Report.ibtbt)
    (na (Report.total c))

(* mean ± σ block from the analytic variance propagation (--sigma) *)
let pp_sigma_stats tag (st : Sensitivity.stats) =
  Format.printf "  %s@." tag;
  let row name ?extra (s : Sensitivity.component_stat) =
    Format.printf "    %-6s %12.1f +/- %10.1f nA%s%s@." name
      (na s.Sensitivity.mean) (na s.Sensitivity.sigma)
      (match extra with Some e -> e | None -> "")
      (if s.Sensitivity.from_mc then "  [mc fallback]" else "")
  in
  row "sub" st.Sensitivity.s_isub;
  row "gate" st.Sensitivity.s_igate;
  row "btbt" st.Sensitivity.s_ibtbt;
  let t = st.Sensitivity.s_total in
  row "total" t
    ~extra:
      (Format.asprintf "  (inter %.1f, intra %.1f)" (na t.Sensitivity.sigma_inter)
         (na t.Sensitivity.sigma_intra))

let sigma_arg =
  Arg.(value & flag
       & info [ "sigma" ]
           ~doc:"Also report the analytic mean +/- sigma of every leakage \
                 component under the paper's process-variation sigmas \
                 (closed-form variance propagation on the first vector, with \
                 the inter-die / intra-die split of the total; components \
                 whose linearization-error bound trips fall back to Monte \
                 Carlo and are marked).")

(* ----------------------------------------------------------------- list *)

let list_cmd =
  let run () =
    Format.printf "%-10s %8s %8s %8s %8s %8s@." "name" "gates" "nets" "PIs"
      "POs" "xtors";
    List.iter
      (fun (e : Suite.entry) ->
        let nl = e.Suite.build () in
        let s = Netlist.stats nl in
        Format.printf "%-10s %8d %8d %8d %8d %8d@." e.Suite.label
          s.Netlist.n_gates s.Netlist.n_nets s.Netlist.n_inputs
          s.Netlist.n_outputs s.Netlist.n_transistors)
      Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark circuits.")
    Term.(const run $ const ())

(* ---------------------------------------------------------------- stats *)

let stats_cmd =
  let run nl =
    Format.printf "%s:@.  %a@." (Netlist.name nl) Netlist.pp_stats
      (Netlist.stats nl)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print structural statistics of a circuit.")
    Term.(const run $ netlist_arg)

(* ------------------------------------------------------------- generate *)

let generate_cmd =
  let output_arg =
    output_file_arg "Output path (.bench, or .v with $(b,--verilog))."
  in
  let verilog_arg =
    Arg.(value & flag
         & info [ "verilog" ] ~doc:"Emit structural Verilog instead of .bench.")
  in
  let run circuit seed output verilog =
    let name =
      match circuit with
      | Some n -> n
      | None -> failwith "--circuit required"
    in
    let nl =
      match Iscas.profile name with
      | profile -> Iscas.generate ~seed profile
      | exception Not_found -> (Suite.find name).Suite.build ()
    in
    if verilog then Verilog.write_file output nl
    else Bench_format.write_file output nl;
    Format.printf "wrote %s (%d gates) to %s@." name (Netlist.gate_count nl)
      output
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Write a benchmark circuit to an ISCAS89 .bench or Verilog file.")
    Term.(const run $ circuit_arg $ seed_arg $ output_arg $ verilog_arg)

(* ------------------------------------------------------------- snapshot *)

let snapshot_cmd =
  let output_arg =
    output_file_arg "Snapshot output path (conventionally .lkn)."
  in
  let run output nl =
    Snapshot.save output nl;
    Format.printf "wrote %s (%d gates, digest %s) to %s@." (Netlist.name nl)
      (Netlist.gate_count nl) (Netlist.digest nl) output
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Compile a circuit into an mmap-able LKN1 binary snapshot. Any \
             command taking $(b,--bench) accepts the resulting .lkn file and \
             loads it without re-parsing.")
    Term.(const run $ output_arg $ netlist_arg)

(* ------------------------------------------------------------------ sim *)

let sim_cmd =
  let vector_arg =
    Arg.(value & opt (some string) None
         & info [ "input" ] ~docv:"BITS"
             ~doc:"Input pattern (defaults to a random one).")
  in
  let run vector seed nl =
    let width = Array.length (Netlist.inputs nl) in
    let pattern =
      match vector with
      | Some bits ->
        if String.length bits <> width then
          failwith (Printf.sprintf "pattern needs %d bits" width);
        Logic.vector_of_string bits
      | None ->
        let rng = Rng.create seed in
        Logic.random_vector rng width
    in
    let values = Simulate.run nl pattern in
    Format.printf "inputs:  %s@." (Logic.vector_to_string pattern);
    Format.printf "outputs: %s@."
      (Logic.vector_to_string (Simulate.outputs nl values));
    let ones =
      Array.fold_left
        (fun acc v -> if Logic.to_bool v then acc + 1 else acc)
        0 values
    in
    Format.printf "net activity: %d of %d nets at '1'@." ones
      (Netlist.net_count nl)
  in
  Cmd.v (Cmd.info "sim" ~doc:"Logic-simulate one input pattern.")
    Term.(const run $ vector_arg $ seed_arg $ netlist_arg)

(* ------------------------------------------------------------- estimate *)

let estimate_cmd =
  let vectors_arg = vectors_arg "Number of random input vectors." in
  let spice_arg =
    Arg.(value & flag
         & info [ "spice" ]
             ~doc:"Also run the full transistor-level solve for comparison.")
  in
  let passes_arg =
    Arg.(value & opt positive_int 1
         & info [ "passes" ] ~docv:"N"
             ~doc:"Loading-propagation passes (1 = the paper's one-level model).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Write a per-gate CSV for the first vector.")
  in
  let top_arg =
    Arg.(value & opt int 0
         & info [ "top" ] ~docv:"N"
             ~doc:"Print the N heaviest-leaking gates of the first vector.")
  in
  let run corner vectors seed spice passes csv top jobs sigma nl =
    let lib = library corner in
    let patterns = Simulate.random_patterns (Rng.create seed) nl vectors in
    Format.printf "%s on %s at %.0f C, %d random vectors@." (Netlist.name nl)
      corner.device.Params.name corner.celsius vectors;
    (match patterns with
     | first :: _ ->
       let detailed = Estimator.estimate ~passes lib nl first in
       (match csv with
        | Some path ->
          Reporting.write_file path (Reporting.per_gate_csv nl detailed);
          Format.printf "  per-gate CSV written to %s@." path
        | None -> ());
       if top > 0 then
         Reporting.pp_per_gate ~limit:top Format.std_formatter nl detailed
     | [] -> ());
    with_jobs jobs @@ fun pool ->
    let loaded, base = Estimator.average_over_vectors ?pool lib nl patterns in
    pp_components "mean (loading-aware):" loaded;
    pp_components "mean (no loading):" base;
    Format.printf "  loading shift: %+.2f%% total, %+.2f%% subthreshold@."
      ((Report.total loaded -. Report.total base) /. Report.total base *. 100.0)
      ((loaded.Report.isub -. base.Report.isub) /. base.Report.isub *. 100.0);
    (if sigma then
       match patterns with
       | first :: _ ->
         let _, _, res =
           Sensitivity.estimate_totals ~passes ?pool
             ~sigmas:Variation.paper_sigmas lib nl first
         in
         Format.printf
           "variance under paper sigmas (first vector, %d response classes):@."
           res.Sensitivity.groups;
         pp_sigma_stats "sigma (loading-aware):" res.Sensitivity.loaded;
         pp_sigma_stats "sigma (no loading):" res.Sensitivity.baseline;
         if Sensitivity.flagged res then
           Format.printf
             "  linearization flags: sub %b, gate %b, btbt %b@."
             res.Sensitivity.flagged_isub res.Sensitivity.flagged_igate
             res.Sensitivity.flagged_ibtbt
       | [] -> ());
    if spice then begin
      let sum =
        List.fold_left
          (fun acc p ->
            let r, _, _ =
              Report.analyze ~device:corner.device ~temp:corner.temp nl p
            in
            Report.add acc r.Report.totals)
          Report.zero patterns
      in
      let mean = Report.scale (1.0 /. float_of_int vectors) sum in
      pp_components "mean (full solve):" mean;
      Format.printf "  estimator vs solver: %+.3f%%@."
        ((Report.total loaded -. Report.total mean)
         /. Report.total mean *. 100.0)
    end
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate circuit leakage with the loading-aware Fig-13 algorithm.")
    Term.(const run $ corner_arg $ vectors_arg $ seed_arg $ spice_arg
          $ passes_arg $ csv_arg $ top_arg $ jobs_arg $ sigma_arg
          $ netlist_arg)

(* --------------------------------------------------------- characterize *)

let kind_conv =
  let parse s =
    match Gate.of_name s with
    | k -> Ok k
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf k -> Format.fprintf ppf "%s" (Gate.name k))

let kind_arg =
  Arg.(value & opt kind_conv Gate.Inv
       & info [ "kind" ] ~docv:"CELL" ~doc:"Cell kind, e.g. INV, NAND2, XOR2.")

let vector_arg =
  Arg.(value & opt (some string) None
       & info [ "vector" ] ~docv:"BITS" ~doc:"Input vector, e.g. 01.")

let parse_vector kind = function
  | Some s -> Logic.vector_of_string s
  | None -> Array.make (Gate.arity kind) Logic.Zero

let characterize_cmd =
  let run { device; temp; celsius } kind vector =
    let v = parse_vector kind vector in
    let e = Characterize.characterize ~device ~temp kind v in
    Format.printf "%s @ %s, vector %s, %.0f C@." (Gate.name kind)
      device.Params.name (Logic.vector_to_string v) celsius;
    pp_components "nominal (isolated):" e.Characterize.nominal_isolated;
    pp_components "nominal (driven):" e.Characterize.nominal_driven;
    Array.iteri
      (fun pin inj ->
        Format.printf "  pin %d injects %+.1f nA into its net@." pin (na inj))
      e.Characterize.pin_injection;
    Format.printf "  delta tables at +1 uA input / -1 uA output:@.";
    pp_components "    d_in(pin 0):" (Characterize.delta e (In 0) 1.0e-6);
    pp_components "    d_out:" (Characterize.delta e Out (-1.0e-6))
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Characterize one cell/vector: nominal leakage, pin currents, \
             loading-response tables.")
    Term.(const run $ corner_arg $ kind_arg $ vector_arg)

(* ---------------------------------------------------------------- sweep *)

let sweep_cmd =
  let output_arg =
    Arg.(value & flag
         & info [ "output" ] ~doc:"Sweep output loading instead of input.")
  in
  let pin_arg =
    Arg.(value & opt int 0 & info [ "pin" ] ~docv:"PIN" ~doc:"Input pin index.")
  in
  let run { device; temp; _ } kind vector output pin =
    let v = parse_vector kind vector in
    let pts =
      if output then Loading.output_sweep ~device ~temp kind v
      else Loading.input_sweep ~device ~temp ~pin kind v
    in
    Format.printf "%s loading sweep, %s vector %s (%s):@."
      (if output then "output" else "input")
      (Gate.name kind) (Logic.vector_to_string v) device.Params.name;
    Format.printf "%12s %10s %10s %10s %10s@." "I_L[nA]" "LD_sub%" "LD_gate%"
      "LD_btbt%" "LD_tot%";
    Array.iter
      (fun (p : Loading.ld_point) ->
        Format.printf "%12.0f %+10.3f %+10.3f %+10.3f %+10.3f@."
          (na p.Loading.current) p.Loading.ld_sub p.Loading.ld_gate
          p.Loading.ld_btbt p.Loading.ld_total)
      pts
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep loading current on one cell and print LD percentages \
             (the Fig 5/7 experiment).")
    Term.(const run $ corner_arg $ kind_arg $ vector_arg $ output_arg
          $ pin_arg)

(* ------------------------------------------------------------------- mc *)

let mc_cmd =
  let run { device; temp; celsius } samples seed jobs =
    let config = { Monte_carlo.paper_config with Monte_carlo.n_samples = samples; seed } in
    let samples_arr =
      with_jobs jobs (fun pool ->
          Monte_carlo.run ?pool ~config ~device ~temp
            ~sigmas:Variation.paper_sigmas ())
    in
    Format.printf "%d samples, 6+6 loading inverters, %s at %.0f C@."
      config.Monte_carlo.n_samples device.Params.name celsius;
    let show name pick =
      let loaded, unloaded = Monte_carlo.component_arrays samples_arr ~pick in
      Format.printf
        "  %-13s mean %9.1f -> %9.1f nA (%+6.2f%%)   std %9.1f -> %9.1f nA (%+6.2f%%)@."
        name
        (na (Stats.mean unloaded)) (na (Stats.mean loaded))
        ((Stats.mean loaded -. Stats.mean unloaded) /. Stats.mean unloaded *. 100.0)
        (na (Stats.std unloaded)) (na (Stats.std loaded))
        ((Stats.std loaded -. Stats.std unloaded) /. Stats.std unloaded *. 100.0)
    in
    show "subthreshold" (fun c -> c.Report.isub);
    show "gate" (fun c -> c.Report.igate);
    show "junction" (fun c -> c.Report.ibtbt);
    show "total" Report.total
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:"Monte-Carlo variation analysis of an inverter with and without \
             loading (the Fig 10/11 experiment).")
    Term.(const run $ corner_arg $ samples_arg 2000 $ seed_arg $ jobs_arg)

(* ---------------------------------------------------------------- suite *)

let suite_cmd =
  let vectors_arg = vectors_arg "Random input vectors per circuit." in
  let run corner vectors seed jobs =
    let lib = library corner in
    let runs =
      with_jobs jobs (fun pool ->
          Suite.estimate_all ?pool ~vectors ~seed lib)
    in
    Format.printf "%s at %.0f C, %d random vectors per circuit@."
      corner.device.Params.name corner.celsius vectors;
    Format.printf "%-10s %8s %14s %14s %9s@." "name" "gates" "loaded[nA]"
      "base[nA]" "shift%";
    Array.iter
      (fun (r : Suite.run) ->
        Format.printf "%-10s %8d %14.1f %14.1f %+9.2f@." r.Suite.label
          r.Suite.gates
          (na (Report.total r.Suite.loaded))
          (na (Report.total r.Suite.baseline))
          r.Suite.shift_percent)
      runs
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Estimate every built-in benchmark circuit (the Fig-12 sweep), \
             fanning circuits out over -j worker domains.")
    Term.(const run $ corner_arg $ vectors_arg $ seed_arg $ jobs_arg)

(* ----------------------------------------------------------------- stat *)

let stat_cmd =
  let run corner samples seed sigma nl =
    let lib = library corner in
    let pattern = first_pattern (Rng.create seed) nl in
    let r =
      Leakage_core.Statistical.run ~n_samples:samples ~seed
        ~sigmas:Variation.paper_sigmas lib nl pattern
    in
    let loaded, unloaded = Leakage_core.Statistical.summary r in
    Format.printf
      "%s: %d samples, one random vector, paper sigmas, %s at %.0f C@."
      (Netlist.name nl) samples corner.device.Params.name corner.celsius;
    let show tag (s : Stats.summary) =
      Format.printf
        "  %-14s mean %10.1f  std %10.1f  p05 %10.1f  p95 %10.1f nA@." tag
        (na s.Stats.mean) (na s.Stats.std) (na s.Stats.p05) (na s.Stats.p95)
    in
    show "with loading" loaded;
    show "no loading" unloaded;
    Format.printf "  loading shift: mean %+.2f%%, std %+.2f%%@."
      ((loaded.Stats.mean -. unloaded.Stats.mean) /. unloaded.Stats.mean *. 100.0)
      ((loaded.Stats.std -. unloaded.Stats.std) /. unloaded.Stats.std *. 100.0);
    if sigma then begin
      (* same pattern, zero samples: the closed form next to the sampler *)
      let _, _, res =
        Sensitivity.estimate_totals ~sigmas:Variation.paper_sigmas lib nl
          pattern
      in
      let row tag (t : Sensitivity.component_stat) =
        Format.printf
          "  %-14s mean %10.1f  std %10.1f  (inter %.1f, intra %.1f) nA%s@."
          tag (na t.Sensitivity.mean) (na t.Sensitivity.sigma)
          (na t.Sensitivity.sigma_inter) (na t.Sensitivity.sigma_intra)
          (if t.Sensitivity.from_mc then "  [mc fallback]" else "")
      in
      Format.printf "analytic variance propagation (no sampling):@.";
      row "with loading" res.Sensitivity.loaded.Sensitivity.s_total;
      row "no loading" res.Sensitivity.baseline.Sensitivity.s_total
    end
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:"Statistical circuit leakage under process variation (fast \
             sensitivity-based Monte Carlo, no per-sample DC solves).")
    Term.(const run $ corner_arg $ samples_arg 1000 $ seed_arg $ sigma_arg
          $ netlist_arg)

(* --------------------------------------------------------------- mtcmos *)

let mtcmos_cmd =
  let width_arg =
    Arg.(value & opt (some float) None
         & info [ "width" ] ~docv:"UM"
             ~doc:"Footer width in um (default: 1 um per gate).")
  in
  let run { device; temp; _ } seed width nl =
    let pattern = first_pattern (Rng.create seed) nl in
    let r = Leakage_core.Mtcmos.analyze ?sleep_width:width ~device ~temp nl pattern in
    Format.printf "%s with an MTCMOS footer:@." (Netlist.name nl);
    pp_components "ungated:" r.Leakage_core.Mtcmos.ungated;
    pp_components "active:" r.Leakage_core.Mtcmos.active.Leakage_core.Mtcmos.leakage;
    Format.printf
      "  active virtual ground %.4f V, leakage overhead %+.2f%% (the \
       footer's own gate tunneling)@."
      r.Leakage_core.Mtcmos.active.Leakage_core.Mtcmos.virtual_ground
      r.Leakage_core.Mtcmos.active_overhead_percent;
    pp_components "standby:" r.Leakage_core.Mtcmos.standby.Leakage_core.Mtcmos.leakage;
    Format.printf
      "  standby virtual ground %.4f V, reduction %.1f%% vs ungated@."
      r.Leakage_core.Mtcmos.standby.Leakage_core.Mtcmos.virtual_ground
      r.Leakage_core.Mtcmos.standby_reduction_percent
  in
  Cmd.v
    (Cmd.info "mtcmos"
       ~doc:"Analyze sleep-transistor power gating: active overhead, standby \
             collapse, virtual-ground levels.")
    Term.(const run $ corner_arg $ seed_arg $ width_arg $ netlist_arg)

(* -------------------------------------------------------------- thermal *)

let thermal_cmd =
  let r_theta_arg =
    Arg.(value & opt float 40.0
         & info [ "r-theta" ] ~docv:"K_PER_W"
             ~doc:"Junction-to-ambient thermal resistance.")
  in
  let power_arg =
    Arg.(value & opt float 0.0
         & info [ "power" ] ~docv:"WATTS" ~doc:"Non-leakage power dissipated.")
  in
  let run { device; temp; celsius } seed r_theta power nl =
    let pattern = first_pattern (Rng.create seed) nl in
    let config =
      { Leakage_core.Thermal.default_config with
        r_theta; other_power = power; ambient = temp }
    in
    match Leakage_core.Thermal.solve ~config ~device nl pattern with
    | Leakage_core.Thermal.Converged op ->
      Format.printf
        "self-consistent point: T = %.2f C (ambient %.0f C), leakage power %.3f uW (%d iterations)@."
        (Physics.kelvin_to_celsius op.Leakage_core.Thermal.temperature)
        celsius
        (op.Leakage_core.Thermal.leakage_power *. 1e6)
        op.Leakage_core.Thermal.iterations;
      pp_components "leakage at that point:" op.Leakage_core.Thermal.leakage
    | Leakage_core.Thermal.Runaway { last_temp; iterations } ->
      Format.printf
        "THERMAL RUNAWAY: temperature passed %.0f C after %d iterations — \
         this package cannot sustain the circuit's leakage@."
        (Physics.kelvin_to_celsius last_temp)
        iterations
  in
  Cmd.v
    (Cmd.info "thermal"
       ~doc:"Find the self-consistent junction temperature including \
             leakage-power feedback (detects thermal runaway).")
    Term.(const run $ corner_arg $ seed_arg $ r_theta_arg $ power_arg
          $ netlist_arg)

(* -------------------------------------------------------------- dualvth *)

let dualvth_cmd =
  let margin_arg =
    Arg.(value & opt int 1
         & info [ "margin" ] ~docv:"LEVELS"
             ~doc:"Keep low threshold within this many levels of the \
                   critical path.")
  in
  let shift_arg =
    Arg.(value & opt float 0.08
         & info [ "shift" ] ~docv:"VOLTS" ~doc:"High-Vth threshold increase.")
  in
  let run corner seed margin shift nl =
    let low_lib = library corner in
    let high_lib =
      let device =
        Leakage_incremental.Dual_vth.high_vth_device ~shift corner.device
      in
      library ~vdd:corner.device.Params.vdd { corner with device }
    in
    let assignment =
      Leakage_incremental.Dual_vth.slack_assignment ~critical_margin:margin nl
    in
    let pattern = first_pattern (Rng.create seed) nl in
    let e =
      Leakage_incremental.Dual_vth.evaluate ~low_lib ~high_lib assignment nl pattern
    in
    Format.printf "%s: %d of %d gates assigned high-Vth (+%.0f mV, margin %d)@."
      (Netlist.name nl) e.Leakage_incremental.Dual_vth.n_high (Netlist.gate_count nl)
      (shift *. 1000.0) margin;
    pp_components "all low-Vth:" e.Leakage_incremental.Dual_vth.baseline;
    pp_components "dual-Vth:" e.Leakage_incremental.Dual_vth.totals;
    Format.printf "  leakage reduction: %.2f%%@."
      e.Leakage_incremental.Dual_vth.reduction_percent
  in
  Cmd.v
    (Cmd.info "dualvth"
       ~doc:"Evaluate a slack-based dual-threshold assignment with the \
             loading-aware estimator.")
    Term.(const run $ corner_arg $ seed_arg $ margin_arg $ shift_arg
          $ netlist_arg)

(* ----------------------------------------------------------------- prob *)

let prob_cmd =
  let p_one_arg =
    Arg.(value & opt float 0.5
         & info [ "p1" ] ~docv:"PROB"
             ~doc:"Probability of '1' on every primary input.")
  in
  let run corner p_one nl =
    let lib = library corner in
    let input_probability =
      Array.make (Array.length (Netlist.inputs nl)) p_one
    in
    let e = Leakage_core.Probabilistic.expected_leakage ~input_probability lib nl in
    Format.printf "%s, expected leakage over the input distribution (p1 = %.2f):@."
      (Netlist.name nl) p_one;
    pp_components "E[leakage] (loading):" e.Leakage_core.Probabilistic.totals;
    pp_components "E[leakage] (no loading):"
      e.Leakage_core.Probabilistic.baseline_totals
  in
  Cmd.v
    (Cmd.info "prob"
       ~doc:"Closed-form average leakage from signal probabilities (instead \
             of sampling random vectors).")
    Term.(const run $ corner_arg $ p_one_arg $ netlist_arg)

(* -------------------------------------------------------------- corners *)

let corners_cmd =
  let run corner nl =
    let pattern = first_pattern (Rng.create 7) nl in
    Format.printf "%s across 3-sigma corners (one random vector):@."
      (Netlist.name nl);
    List.iter
      (fun (tag, process) ->
        let device =
          Variation.corner_device corner.device Variation.paper_sigmas process
        in
        let lib = library { corner with device } in
        let est = Estimator.estimate lib nl pattern in
        pp_components (tag ^ ":") est.Estimator.totals)
      [ ("slow", Variation.Slow); ("typical", Variation.Typical);
        ("fast", Variation.Fast) ]
  in
  Cmd.v
    (Cmd.info "corners"
       ~doc:"Estimate leakage at the slow / typical / fast process corners.")
    Term.(const run $ corner_arg $ netlist_arg)

(* -------------------------------------------------------------- vectors *)

let vectors_cmd =
  let run corner seed nl =
    let c = Vector_control.compare_objectives ~seed (library corner) nl in
    let show tag (r : Vector_control.search_result) =
      Format.printf "  %-26s %s (%.1f nA)@." tag
        (Logic.vector_to_string r.Vector_control.vector)
        (na r.Vector_control.total)
    in
    show "minimum (loading-aware):" c.Vector_control.with_loading;
    show "minimum (traditional):" c.Vector_control.without_loading;
    Format.printf "  traditional optimum under loading: %.1f nA@."
      (na c.Vector_control.without_under_loading);
    Format.printf "  minimum vector changed by loading: %b@."
      c.Vector_control.changed
  in
  Cmd.v
    (Cmd.info "vectors"
       ~doc:"Search the minimum-leakage input vector with and without the \
             loading effect (input-vector control, §6).")
    Term.(const run $ corner_arg $ seed_arg $ netlist_arg)

(* ----------------------------------------------------------------- incr *)

let incr_cmd =
  let edits_arg =
    Arg.(value & opt positive_int 1000
         & info [ "edits" ] ~docv:"N" ~doc:"Number of random edits to apply.")
  in
  let refresh_arg =
    Arg.(value & opt int 64
         & info [ "refresh" ] ~docv:"N"
             ~doc:"Full-refresh period of the session (0 disables).")
  in
  let flip_arg =
    Arg.(value & flag
         & info [ "flip-inputs" ]
             ~doc:"Mix random primary-input flips into the edit stream \
                   (default: gate resizes only).")
  in
  let batch_arg =
    Arg.(value & opt positive_int 1
         & info [ "batch" ] ~docv:"N"
             ~doc:"Apply the edit stream in batches of N edits through the \
                   grouped-batch path; cone-disjoint groups inside a batch \
                   run on the $(b,-j) pool, with results bit-identical to \
                   the sequential walk. 1 (the default) applies edits one \
                   at a time.")
  in
  let run corner seed edits refresh flip_inputs batch jobs nl =
    let lib = library corner in
    (* the edit stream comes from the same generator, after the pattern *)
    let rng = Rng.create seed in
    let pattern = first_pattern rng nl in
    let edit_stream =
      Array.init edits (fun _ ->
          if flip_inputs && Rng.bool rng then Edit.random_set_input rng nl
          else Edit.random_resize rng nl)
    in
    let slices =
      Array.init ((edits + batch - 1) / batch) (fun i ->
          let lo = i * batch in
          Array.to_list
            (Array.sub edit_stream lo (Stdlib.min edits (lo + batch) - lo)))
    in
    (* a pool only helps the grouped-batch path; don't spawn one otherwise *)
    with_jobs (if batch = 1 then 1 else jobs) @@ fun pool ->
    (* a one-edit batch is a single apply, so --batch 1 times single edits *)
    let apply_stream session =
      Array.map
        (fun slice ->
          let s = Sys.time () in
          Incremental.apply_batch ?pool session slice;
          Sys.time () -. s)
        slices
    in
    (* Warm-up pass: first-touch cell characterizations land in the shared
       library cache, which both the session and the full estimator use. The
       timed passes below then compare estimation work, not SPICE solves. *)
    let warm = Incremental.create ~refresh_every:refresh lib nl pattern in
    ignore (apply_stream warm);
    let session = Incremental.create ~refresh_every:refresh lib nl pattern in
    let t0 = Sys.time () in
    let per_step = apply_stream session in
    let incr_total = Sys.time () -. t0 in
    (* reference: full Fig-13 estimates of the same final state *)
    let nl' = Incremental.current_netlist session in
    let library_of_gate = Incremental.library_of_gate session in
    let p' = Incremental.pattern session in
    let reps = Stdlib.min edits 20 in
    let tf = Sys.time () in
    for _ = 1 to reps do
      ignore (Estimator.estimate ~library_of_gate lib nl' p')
    done;
    let full_mean = (Sys.time () -. tf) /. float_of_int reps in
    let fresh = Estimator.estimate ~library_of_gate lib nl' p' in
    let rel_err =
      let a = Report.total (Incremental.totals session)
      and b = Report.total fresh.Estimator.totals in
      Float.abs (a -. b) /. Float.abs b
    in
    let st = Incremental.stats session in
    let us t = t *. 1e6 in
    let s = Stats.summarize per_step in
    Format.printf "%s: %d gates, %d random %s edits (refresh every %d%s)@."
      (Netlist.name nl) (Netlist.gate_count nl) edits
      (if flip_inputs then "resize/input" else "resize")
      refresh
      (if batch = 1 then ""
       else
         Printf.sprintf ", batches of %d on %d lane%s" batch
           (match pool with Some p -> Pool.jobs p | None -> 1)
           (match pool with Some p when Pool.jobs p > 1 -> "s" | _ -> ""));
    pp_components "session totals:" (Incremental.totals session);
    Format.printf "  vs fresh estimate: %.2e relative error@." rel_err;
    Format.printf
      "  %s time: mean %.1f us, p50 %.1f, p95 %.1f, max %.1f us@."
      (if batch = 1 then "per-edit" else "per-batch")
      (us s.Stats.mean) (us s.Stats.p50) (us s.Stats.p95) (us s.Stats.max);
    if batch > 1 then
      Format.printf
        "  batches: %d applied, mean %.1f cone-disjoint group%s each@."
        st.Incremental.batches
        (float_of_int st.Incremental.batch_groups
         /. float_of_int (Stdlib.max 1 st.Incremental.batches))
        (if st.Incremental.batch_groups > st.Incremental.batches then "s"
         else "");
    Format.printf "  full estimate: %.1f us -> speedup %.1fx per edit@."
      (us full_mean)
      (full_mean /. (incr_total /. float_of_int edits));
    Format.printf
      "  mean cone: %.1f logic evals, %.1f entry updates, %.1f net updates, \
       %.1f leakage lookups per edit (%d refreshes)@."
      (float_of_int st.Incremental.logic_evals /. float_of_int edits)
      (float_of_int st.Incremental.entry_updates /. float_of_int edits)
      (float_of_int st.Incremental.net_updates /. float_of_int edits)
      (float_of_int st.Incremental.leakage_lookups /. float_of_int edits)
      st.Incremental.refreshes
  in
  Cmd.v
    (Cmd.info "incr"
       ~doc:"Apply a stream of random netlist edits through the incremental \
             re-estimation session and report per-edit timing, cone sizes, \
             and the speedup over full re-estimation. With $(b,--batch) the \
             stream goes through the grouped-batch path, whose cone-disjoint \
             edit groups run on the $(b,-j) worker pool.")
    Term.(const run $ corner_arg $ seed_arg $ edits_arg $ refresh_arg
          $ flip_arg $ batch_arg $ jobs_arg $ netlist_arg)

(* ---------------------------------------------------------------- serve *)

module Server = Leakage_server.Server
module Sproto = Leakage_server.Protocol
module Sclient = Leakage_server.Client
module Wire = Leakage_server.Wire

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"N" ~doc:"Loopback TCP port.")

let serve_cmd =
  let run socket port http_port executors quota max_sessions state_dir
      peer_dir tenant_rate jobs log_file log_level slow_ms =
    let socket =
      match socket with
      | Some s -> s
      | None -> failwith "--socket PATH is required"
    in
    (* the metrics op answers from the live telemetry registry *)
    Telemetry.set_enabled true;
    (match log_file with
     | None -> ()
     | Some path ->
       let level =
         match Tlog.level_of_string log_level with
         | Some l -> l
         | None -> failwith ("unknown log level " ^ log_level)
       in
       if path = "-" then Tlog.enable ~level stderr
       else Tlog.enable_file ~level path);
    (* a client hanging up mid-reply must not kill the daemon *)
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    let slow_us =
      match slow_ms with Some ms -> ms *. 1000.0 | None -> infinity
    in
    (* --tenant-rate R[:B]: sustained rate, optional burst *)
    let tenant_rate, tenant_burst =
      match tenant_rate with
      | None -> (None, None)
      | Some s ->
        let parse what v =
          match float_of_string_opt v with
          | Some f when f > 0.0 -> f
          | _ -> failwith ("--tenant-rate: " ^ what ^ " must be positive, got " ^ v)
        in
        (match String.index_opt s ':' with
         | None -> (Some (parse "rate" s), None)
         | Some i ->
           ( Some (parse "rate" (String.sub s 0 i)),
             Some
               (parse "burst"
                  (String.sub s (i + 1) (String.length s - i - 1))) ))
    in
    let server =
      Server.create ?port ?http_port ~executors
        ?jobs:(if jobs <= 0 then None else Some jobs)
        ~quota ~max_sessions ?state_dir ?peer_dir ?tenant_rate ?tenant_burst
        ~version:"1.0.0" ~slow_us ~socket ()
    in
    let stop _ = Server.request_stop server in
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop));
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop));
    Format.printf "leakctl serve: listening on %s%s%s@." socket
      (match port with
       | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
       | None -> "")
      (match Server.http_port server with
       | Some p -> Printf.sprintf ", metrics on http://127.0.0.1:%d/metrics" p
       | None -> "");
    Format.print_flush ();
    Server.run server;
    Tlog.disable ();
    Format.printf "leakctl serve: drained, checkpoints flushed, stopped@."
  in
  let executors =
    Arg.(value & opt positive_int 2
         & info [ "executors" ] ~docv:"N"
             ~doc:"Executor domains; sessions stick to one by digest hash.")
  in
  let quota =
    Arg.(value & opt positive_int 8
         & info [ "quota" ] ~docv:"N"
             ~doc:"Per-tenant in-flight request cap (over it, requests are \
                   rejected with a retriable over_quota error).")
  in
  let max_sessions =
    Arg.(value & opt positive_int 8
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Live warm sessions before idle LRU eviction.")
  in
  let state_dir =
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Checkpoint directory: evicted or killed sessions restore \
                   from here on the next open. Without it nothing survives \
                   eviction or a restart.")
  in
  let peer_dir =
    Arg.(value & opt (some string) None
         & info [ "peer-dir" ] ~docv:"DIR"
             ~doc:"Checkpoint directory shared with peer daemons: every \
                   post-batch checkpoint is mirrored here atomically, and \
                   an open that misses the local state adopts the newest \
                   matching peer checkpoint — so a client retrying against \
                   a peer after a crash lands warm, losing at most the \
                   in-flight batch.")
  in
  let tenant_rate =
    Arg.(value & opt (some string) None
         & info [ "tenant-rate" ] ~docv:"R[:B]"
             ~doc:"Per-tenant token-bucket admission: sustain $(i,R) \
                   requests/second with bursts up to $(i,B) (default \
                   max 1 R). Over the bucket, requests get a retriable \
                   over_quota error with a retry-after hint.")
  in
  let http_port =
    Arg.(value & opt (some int) None
         & info [ "http-port" ] ~docv:"N"
             ~doc:"Loopback HTTP sidecar for observability: GET /metrics \
                   (Prometheus exposition), GET /healthz (drain state). 0 \
                   picks an ephemeral port, printed at startup.")
  in
  let log_file =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Structured JSONL event log (one JSON object per line, \
                   request ids included); $(b,-) logs to stderr.")
  in
  let log_level =
    Arg.(value & opt string "info"
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Minimum level for --log: debug, info, warn, error.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Log a request.slow event for requests slower than \
                   $(i,MS) milliseconds.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the estimation daemon: warm incremental sessions keyed by \
             netlist digest behind a binary protocol on a Unix-domain socket \
             (and optionally a loopback TCP port), with an optional HTTP \
             observability sidecar. SIGINT/SIGTERM shut down gracefully: \
             drain queued work, flush checkpoints, close sockets.")
    Term.(const run $ socket_arg $ port_arg $ http_port $ executors $ quota
          $ max_sessions $ state_dir $ peer_dir $ tenant_rate $ jobs_arg
          $ log_file $ log_level $ slow_ms)

(* --------------------------------------------------------------- client *)

(* The one way client and top reach a daemon: connect to --socket, or to
   --port on [host], run [f], and turn every connect, transport or server
   failure into a one-line [Failure]. *)
let with_daemon ?(policy = Sclient.default_policy) ?(host = "127.0.0.1")
    socket port f =
  let exhausted () =
    if policy.retries > 0 then
      Printf.sprintf " (%d retries exhausted)" policy.retries
    else ""
  in
  let endpoint =
    match socket, port with
    | Some path, _ -> Sclient.Unix_path path
    | None, Some p -> Sclient.Tcp (host, p)
    | None, None -> failwith "--socket PATH or --port N is required"
  in
  let client =
    try Sclient.connect ~policy [ endpoint ]
    with Unix.Unix_error (e, _, _) ->
      failwith
        (Printf.sprintf "cannot connect to the daemon%s: %s" (exhausted ())
           (Unix.error_message e))
  in
  Fun.protect ~finally:(fun () -> Sclient.close client) @@ fun () ->
  try f client with
  | Sclient.Server_error (code, msg) ->
    failwith
      (Printf.sprintf "server error (%s%s): %s"
         (Sproto.error_code_name code)
         (if Sproto.retriable code then ", retriable" else "")
         msg)
  | Wire.Timeout ->
    failwith
      (Printf.sprintf "rpc timed out after %.0fms%s"
         (Option.value ~default:0.0 policy.timeout_ms)
         (exhausted ()))
  | Sclient.Poisoned msg -> failwith msg
  | Unix.Unix_error (e, _, _) ->
    failwith
      (Printf.sprintf "connection to the daemon failed%s: %s"
         (exhausted ()) (Unix.error_message e))
  | End_of_file | Wire.Truncated ->
    failwith
      (Printf.sprintf "daemon closed the connection mid-reply%s"
         (exhausted ()))
  | Wire.Bad_frame msg ->
    failwith (Printf.sprintf "malformed reply frame: %s" msg)

let client_cmd =
  let parse_pair what conv s =
    match String.index_opt s ':' with
    | None -> failwith (what ^ " expects ID:VALUE, got " ^ s)
    | Some i ->
      ( int_of_string (String.sub s 0 i),
        conv (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let run socket port host op session tenant corner pattern circuit bench
      resizes retypes sets refresh ckpt text retries timeout_ms =
    if retries < 0 then failwith "--retries must be >= 0";
    (match timeout_ms with
     | Some ms when ms <= 0.0 -> failwith "--timeout-ms must be positive"
     | _ -> ());
    (* the wire carries .bench text only, so refuse any other file before
       touching the daemon *)
    Option.iter
      (fun path ->
        if String.lowercase_ascii (Filename.extension path) <> ".bench" then
          failwith
            ("client --bench takes a .bench file (the daemon reads .bench \
              text only), got " ^ path))
      bench;
    let policy = { Sclient.default_policy with retries; timeout_ms } in
    with_daemon ~policy ~host socket port @@ fun client ->
    let sid () =
      match session with
      | Some s -> s
      | None -> failwith ("--session is required for " ^ op)
    in
    match op with
    | "ping" ->
      Sclient.ping client;
      Format.printf "pong@."
    | "open" ->
      let circuit =
        match circuit, bench with
        | Some name, None -> Sproto.Builtin name
        | None, Some path ->
          Sproto.Bench
            { name = Filename.remove_extension (Filename.basename path);
              text = In_channel.with_open_bin path In_channel.input_all }
        | Some _, Some _ -> failwith "give either --circuit or --bench, not both"
        | None, None -> failwith "open needs --circuit NAME or --bench FILE"
      in
      let o =
        Sclient.open_session client ~tenant ~device:corner.device.Params.name
          ~temp_c:corner.celsius ~pattern ~circuit ()
      in
      Format.printf "session %d: %s, digest %s, %d gates@."
        o.Sclient.session
        (Sproto.session_status_name o.Sclient.status)
        o.Sclient.digest o.Sclient.gates
    | "apply" ->
      (* flags of one kind keep their order; kinds apply in the order
         resize, retype, set-input *)
      let edits =
        List.map
          (fun s ->
            let g, f = parse_pair "--resize" float_of_string s in
            Sproto.Resize (g, f))
          resizes
        @ List.map
            (fun s ->
              let g, k = parse_pair "--retype" Fun.id s in
              Sproto.Retype (g, k))
            retypes
        @ List.map
            (fun s ->
              let n, b =
                parse_pair "--set-input"
                  (function
                    | "0" -> false
                    | "1" -> true
                    | v -> failwith ("bit must be 0 or 1, got " ^ v))
                  s
              in
              Sproto.Set_input (n, b))
            sets
      in
      if edits = [] then
        failwith "apply needs at least one --resize/--retype/--set-input";
      let groups = Sclient.apply_batch client ~session:(sid ()) edits in
      Format.printf "applied %d edits in %d cone groups@."
        (List.length edits) groups
    | "query" ->
      let loaded, baseline =
        Sclient.query client ~session:(sid ()) ~refresh ()
      in
      pp_components "loaded (with fan-out)" loaded;
      pp_components "baseline (unloaded)" baseline;
      Format.printf "  loading penalty: %+.2f%%@."
        ((Report.total loaded /. Report.total baseline -. 1.) *. 100.)
    | "checkpoint" ->
      Format.printf "checkpoint %d@."
        (Sclient.checkpoint client ~session:(sid ()))
    | "rollback" ->
      let ck =
        match ckpt with
        | Some c -> c
        | None -> failwith "--ckpt N is required for rollback"
      in
      Sclient.rollback client ~session:(sid ()) ~checkpoint:ck;
      Format.printf "rolled back to checkpoint %d@." ck
    | "close" ->
      Sclient.close_session client ~session:(sid ());
      Format.printf "closed@."
    | "metrics" ->
      let r = Sclient.metrics_snapshot client in
      if text then begin
        Format.printf "daemon %s, up %.1fs@." r.Sclient.version
          r.Sclient.uptime_s;
        Format.printf "%a@?" Telemetry.Snapshot.pp r.Sclient.snapshot
      end
      else begin
        (* raw snapshot JSON; keep the stream newline-terminated so
           shell pipelines and JSONL consumers see one full line *)
        let meta =
          [
            ("uptime_s", Printf.sprintf "%.3f" r.Sclient.uptime_s);
            ("version", "\"" ^ Json.escape r.Sclient.version ^ "\"");
          ]
        in
        print_string (Telemetry.Snapshot.to_json ~meta r.Sclient.snapshot);
        print_newline ()
      end
    | "shutdown" ->
      Sclient.shutdown_server client;
      Format.printf "server draining@."
    | other -> failwith ("unknown op " ^ other)
  in
  let op =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OP"
             ~doc:"One of: ping, open, apply, query, checkpoint, rollback, \
                   close, metrics, shutdown.")
  in
  let session =
    Arg.(value & opt (some int) None
         & info [ "session" ] ~docv:"ID" ~doc:"Session id from open.")
  in
  let tenant =
    Arg.(value & opt string "anon"
         & info [ "tenant" ] ~docv:"NAME"
             ~doc:"Tenant name for admission control.")
  in
  let pattern =
    Arg.(value & opt string ""
         & info [ "pattern" ] ~docv:"BITS"
             ~doc:"Primary-input vector; empty keeps/zeroes the vector.")
  in
  let resize =
    Arg.(value & opt_all string []
         & info [ "resize" ] ~docv:"GATE:FACTOR"
             ~doc:"Resize gate $(i,GATE) by $(i,FACTOR) (repeatable).")
  in
  let retype =
    Arg.(value & opt_all string []
         & info [ "retype" ] ~docv:"GATE:KIND"
             ~doc:"Retype gate $(i,GATE) to cell $(i,KIND) (repeatable).")
  in
  let set_input =
    Arg.(value & opt_all string []
         & info [ "set-input" ] ~docv:"INPUT:BIT"
             ~doc:"Drive primary input $(i,INPUT) to $(i,BIT) (repeatable).")
  in
  let refresh =
    Arg.(value & flag
         & info [ "refresh" ]
             ~doc:"Re-sum totals from state before answering the query.")
  in
  let ckpt =
    Arg.(value & opt (some int) None
         & info [ "ckpt" ] ~docv:"N" ~doc:"Checkpoint id for rollback.")
  in
  let text =
    Arg.(value & flag
         & info [ "text" ]
             ~doc:"Render $(b,metrics) as the human-readable report \
                   (counters, gauges, histogram summaries) instead of raw \
                   JSON.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST"
             ~doc:"Host for --port connections; names resolve via \
                   getaddrinfo, so $(b,localhost) works.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry budget: transport failures reconnect, retriable \
                   server errors (over_quota, shutting_down) back off \
                   exponentially with jitter — honoring the server's \
                   retry-after hint — and resend, up to $(i,N) times.")
  in
  let timeout_ms =
    Arg.(value & opt (some float) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-RPC reply deadline in milliseconds; hitting it \
                   poisons the connection (retries reconnect).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running $(b,leakctl serve) daemon: open a warm \
             session (from a built-in circuit or a .bench file), apply edit \
             batches, query loaded/baseline totals, checkpoint/rollback, \
             fetch metrics, or shut the daemon down.")
    Term.(const run $ socket_arg $ port_arg $ host $ op $ session $ tenant
          $ corner_arg $ pattern $ circuit_arg $ bench_file_arg $ resize
          $ retype $ set_input $ refresh $ ckpt $ text $ retries $ timeout_ms)

(* ------------------------------------------------------------------ top *)

let top_cmd =
  let run socket port interval frames no_clear =
    if interval <= 0.0 then failwith "--interval must be positive";
    with_daemon socket port @@ fun client ->
    let poll () = Sclient.metrics_snapshot client in
    let older = ref (poll ()).Sclient.snapshot in
    for _ = 1 to (if frames = 0 then max_int else frames) do
      Unix.sleepf interval;
      let r = poll () in
      let view =
        Top_view.make ~uptime_s:r.Sclient.uptime_s ~version:r.Sclient.version
          ~newer:r.Sclient.snapshot ~older:!older
      in
      older := r.Sclient.snapshot;
      if not no_clear then print_string "\027[2J\027[H";
      Format.printf "%a@?" Top_view.pp view
    done
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"S"
             ~doc:"Seconds between polls (the rate window).")
  in
  let frames =
    Arg.(value & opt int 0
         & info [ "frames" ] ~docv:"N"
             ~doc:"Render N frames and exit; 0 runs until interrupted.")
  in
  let no_clear =
    Arg.(value & flag
         & info [ "no-clear" ]
             ~doc:"Append frames instead of clearing the screen (for \
                   logging or piping).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live daemon view: poll a running $(b,leakctl serve) and render \
             request rates, per-op p50/p99 latency, per-tenant quota \
             pressure, session churn, and runtime gauges from snapshot \
             deltas.")
    Term.(const run $ socket_arg $ port_arg $ interval $ frames $ no_clear)

(* ------------------------------------------------------------ telemetry *)

type telemetry_opts = {
  trace_path : string option;
  metrics_text : bool;
  metrics_json : string option;
}

(* --trace / --metrics / --metrics-json apply to every subcommand, but a
   cmdliner group only parses options after the subcommand name. Pull them
   out of argv (any position, --opt VALUE or --opt=VALUE) and hand cmdliner
   the rest, so `leakctl --trace out.json suite` and
   `leakctl suite --trace out.json` both work. *)
let extract_telemetry_args argv =
  let trace = ref (Sys.getenv_opt "LEAKCTL_TRACE") in
  let metrics = ref false in
  let metrics_json = ref None in
  let rest = ref [] in
  let n = Array.length argv in
  let i = ref 0 in
  (* A malformed global option must not escape as an exception (these are
     parsed before cmdliner ever runs): print a usage line and exit 124,
     the same status cmdliner uses for its own CLI parse errors. *)
  let usage_error key =
    Printf.eprintf
      "leakctl: option '%s' needs a FILE argument\n\
       usage: leakctl [--trace FILE] [--metrics] [--metrics-json FILE] \
       COMMAND ...\n"
      key;
    exit 124
  in
  while !i < n do
    let arg = argv.(!i) in
    let key, inline =
      match String.index_opt arg '=' with
      | Some j ->
        ( String.sub arg 0 j,
          Some (String.sub arg (j + 1) (String.length arg - j - 1)) )
      | None -> (arg, None)
    in
    let value_of () =
      match inline with
      | Some "" -> usage_error key
      | Some v -> v
      | None ->
        if !i + 1 >= n then usage_error key
        else begin
          incr i;
          argv.(!i)
        end
    in
    (match key with
     | "--trace" -> trace := Some (value_of ())
     | "--metrics" -> metrics := true
     | "--metrics-json" -> metrics_json := Some (value_of ())
     | _ -> rest := arg :: !rest);
    incr i
  done;
  ( { trace_path = !trace; metrics_text = !metrics;
      metrics_json = !metrics_json },
    Array.of_list (List.rev !rest) )

let () =
  let opts, argv = extract_telemetry_args Sys.argv in
  let observing =
    opts.trace_path <> None || opts.metrics_text || opts.metrics_json <> None
  in
  if observing then Telemetry.set_enabled true;
  if opts.trace_path <> None then Trace.start ();
  let doc =
    "loading-aware leakage analysis for nano-scaled bulk-CMOS logic \
     (Mukhopadhyay, Bhunia, Roy; DATE 2005)"
  in
  let man =
    [ `S Manpage.s_common_options;
      `P "Every subcommand also accepts (in any argv position):";
      `P "$(b,--trace) $(i,FILE) — record Chrome trace-event spans (one \
          track per worker domain) and write them to $(i,FILE); load in \
          Perfetto or chrome://tracing. $(b,LEAKCTL_TRACE)=$(i,FILE) does \
          the same.";
      `P "$(b,--metrics) — print the merged counter/histogram report to \
          stderr on exit.";
      `P "$(b,--metrics-json) $(i,FILE) — write the metrics report as JSON \
          to $(i,FILE).";
      `P "Telemetry never changes results: runs with and without it are \
          bit-identical." ]
  in
  let info = Cmd.info "leakctl" ~version:"1.0.0" ~doc ~man in
  let group =
    Cmd.group info
      [ list_cmd; stats_cmd; generate_cmd; snapshot_cmd; sim_cmd;
        estimate_cmd; characterize_cmd;
        sweep_cmd; mc_cmd; suite_cmd; stat_cmd; mtcmos_cmd; thermal_cmd;
        dualvth_cmd; prob_cmd; corners_cmd; vectors_cmd; incr_cmd;
        serve_cmd; client_cmd; top_cmd ]
  in
  (* Expected failures (bad netlist file, bad usage, missing path) get one
     clean stderr line and a distinct exit status, not a backtrace;
     anything else still escapes loudly as the bug it is. *)
  let code =
    try Cmd.eval ~catch:false ~argv group with
    | Bench_format.Parse_error (line, msg) ->
      Format.eprintf "leakctl: parse error at line %d: %s@." line msg;
      123
    | Spice_format.Parse_error (line, msg) ->
      Format.eprintf "leakctl: SPICE parse error at line %d: %s@." line msg;
      123
    | Snapshot.Snapshot_error msg | Failure msg ->
      Format.eprintf "leakctl: %s@." msg;
      123
    | Sys_error msg ->
      Format.eprintf "leakctl: %s@." msg;
      123
  in
  (match opts.trace_path with
   | Some path ->
     Trace.write path;
     Format.eprintf "trace: %d events written to %s@."
       (Trace.event_count ()) path
   | None -> ());
  if opts.metrics_text || opts.metrics_json <> None then begin
    let snap = Telemetry.Snapshot.take () in
    if opts.metrics_text then
      Format.eprintf "%a@?" Telemetry.Snapshot.pp snap;
    match opts.metrics_json with
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Telemetry.Snapshot.to_json snap);
          output_char oc '\n');
      Format.eprintf "metrics: JSON report written to %s@." path
    | None -> ()
  end;
  exit code
