(* Tests of the paper's contribution layer: characterization tables, the
   Fig-13 estimator, loading-effect analysis, Monte Carlo and input-vector
   control. *)

module Params = Leakage_device.Params
module Variation = Leakage_device.Variation
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate
module Report = Leakage_spice.Leakage_report
module Testbench = Leakage_core.Testbench
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Loading = Leakage_core.Loading
module Monte_carlo = Leakage_core.Monte_carlo
module Vector_control = Leakage_incremental.Vector_control
module Vector_mc = Leakage_incremental.Vector_mc
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Suite = Leakage_benchmarks.Suite
module Reporting = Leakage_core.Reporting
module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats
module Interp = Leakage_numeric.Interp

let device = Params.d25
let temp = 300.0

(* Characterization is the expensive step; share one library and one coarse
   grid across the whole executable. *)
let coarse_grid = { Characterize.max_current = 3.0e-6; points = 7 }
let lib = Library.create ~grid:coarse_grid ~device ~temp ()

(* ------------------------------------------------------------ Testbench *)

let test_testbench_shape () =
  let tb = Testbench.make (Gate.Nand 2) (Logic.vector_of_string "01") in
  Alcotest.(check int) "3 gates (2 drivers + DUT)" 3
    (Netlist.gate_count tb.Testbench.netlist);
  Alcotest.(check int) "dut id" 2 tb.Testbench.dut_gate;
  Alcotest.(check int) "pins" 2 (Array.length tb.Testbench.pin_nets)

let test_testbench_vector_guard () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Testbench.make: NAND2 expects a 2-bit vector")
    (fun () -> ignore (Testbench.make (Gate.Nand 2) [| Logic.Zero |]))

let test_testbench_drivers_apply_vector () =
  (* the drivers invert the primary pattern, so the DUT pins see the vector *)
  let tb = Testbench.make (Gate.Nand 2) (Logic.vector_of_string "01") in
  let values = Simulate.run tb.Testbench.netlist tb.Testbench.pattern in
  Alcotest.(check char) "pin 0 at 0" '0'
    (Logic.to_char values.(tb.Testbench.pin_nets.(0)));
  Alcotest.(check char) "pin 1 at 1" '1'
    (Logic.to_char values.(tb.Testbench.pin_nets.(1)))

let test_testbench_solve_components () =
  let tb = Testbench.make Gate.Inv [| Logic.Zero |] in
  let c = (Testbench.solve (Testbench.compile ~device ~temp tb)).Testbench.leakage in
  Alcotest.(check bool) "positive leakage" true (Report.total c > 0.0)

let test_testbench_injection_guard () =
  let tb = Testbench.make Gate.Inv [| Logic.Zero |] in
  (* net 0 is the primary input *)
  Alcotest.check_raises "PI injection rejected"
    (Invalid_argument "Testbench.solve: injection into a primary input net")
    (fun () ->
      ignore
        (Testbench.solve ~injections:[ (0, 1e-6) ]
           (Testbench.compile ~device ~temp tb)))

let test_testbench_pin_injection_sign () =
  (* pin at '0': the cell's on-PMOS tunneling injects current into the net *)
  let injection v =
    (Testbench.solve
       (Testbench.compile ~device ~temp (Testbench.make Gate.Inv [| v |])))
      .Testbench.pin_injection.(0)
  in
  Alcotest.(check bool) "injects at 0" true (injection Logic.Zero > 0.0);
  Alcotest.(check bool) "draws at 1" true (injection Logic.One < 0.0)

let test_isolated_components () =
  let c =
    Testbench.isolated_components ~device ~temp Gate.Inv [| Logic.Zero |]
  in
  Alcotest.(check bool) "positive" true
    (c.Report.isub > 0.0 && c.Report.igate > 0.0 && c.Report.ibtbt > 0.0)

(* -------------------------------------------------------- Characterize *)

let entry_inv0 = Library.entry lib Gate.Inv [| Logic.Zero |]
let entry_inv1 = Library.entry lib Gate.Inv [| Logic.One |]

(* a spread of kinds and vectors for the [apply] guard and reference checks *)
let apply_entries =
  lazy
    (List.map
       (fun (kind, v) -> Library.entry lib kind (Logic.vector_of_string v))
       [ (Gate.Inv, "0"); (Gate.Inv, "1"); (Gate.Nand 2, "10");
         (Gate.Nand 2, "11"); (Gate.Nor 3, "010"); (Gate.Aoi21, "101");
         (Gate.Xor, "10") ])

(* [Characterize.apply] over (pins, output) as a record, and the number of
   ports it reports outside the current axis. *)
let apply_counted e ~loading_in ~loading_out =
  let out = Array.make 3 0.0 in
  let clamped =
    Characterize.apply e ~loading:(Array.append loading_in [| loading_out |])
      ~out
  in
  ({ Report.isub = out.(0); igate = out.(1); ibtbt = out.(2) }, clamped)

let apply e ~loading_in ~loading_out = fst (apply_counted e ~loading_in ~loading_out)

let test_characterize_zero_injection_identity () =
  (* at zero loading the tables must reproduce the driven nominal *)
  let applied =
    apply entry_inv0 ~loading_in:[| 0.0 |] ~loading_out:0.0
  in
  Alcotest.(check (float 1e-13)) "identity at origin"
    (Report.total entry_inv0.Characterize.nominal_driven)
    (Report.total applied)

let test_characterize_delta_signs_input () =
  (* positive injection on a '0' input raises sub, trims gate (Fig 5a/b) *)
  let d = Characterize.delta entry_inv0 (In 0) 2.0e-6 in
  Alcotest.(check bool) "sub up" true (d.Report.isub > 0.0);
  Alcotest.(check bool) "gate down" true (d.Report.igate < 0.0)

let test_characterize_delta_signs_output () =
  (* negative injection (fanout draw) on a '1' output lowers everything *)
  let d = Characterize.delta entry_inv0 Out (-2.0e-6) in
  Alcotest.(check bool) "sub down" true (d.Report.isub < 0.0);
  Alcotest.(check bool) "gate down" true (d.Report.igate < 0.0);
  Alcotest.(check bool) "btbt down" true (d.Report.ibtbt < 0.0)

let test_characterize_monotone_sub_table () =
  let xs = [ -2.0e-6; -1.0e-6; 0.0; 1.0e-6; 2.0e-6 ] in
  let values =
    List.map
      (fun x ->
        (Characterize.delta entry_inv0 (In 0) x).Report.isub)
      xs
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-15 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sub monotone in injected current" true
    (increasing values)

let test_characterize_pin_injection_matches_state () =
  Alcotest.(check bool) "pin at 0 injects" true
    (entry_inv0.Characterize.pin_injection.(0) > 0.0);
  Alcotest.(check bool) "pin at 1 draws" true
    (entry_inv1.Characterize.pin_injection.(0) < 0.0)

let test_characterize_apply_guard () =
  Alcotest.check_raises "pin arity"
    (Invalid_argument "Characterize.apply: loading needs one current per port")
    (fun () ->
      ignore (apply entry_inv0 ~loading_in:[| 0.0; 0.0 |] ~loading_out:0.0));
  (* a NaN loading on any pin or on the output is rejected *)
  List.iter
    (fun (e : Characterize.entry) ->
      let arity = Gate.arity e.Characterize.kind in
      for port = 0 to arity do
        let loading_in = Array.init arity (fun p -> if p = port then nan else 0.0) in
        let loading_out = if port = arity then nan else 0.0 in
        match apply e ~loading_in ~loading_out with
        | exception Invalid_argument _ -> ()
        | _ ->
          Alcotest.failf "%s: NaN on port %d accepted"
            (Gate.name e.Characterize.kind) port
      done)
    (Lazy.force apply_entries)

let test_characterize_apply_never_negative () =
  (* far beyond the grid the clamped tables must not drive leakage < 0 *)
  let c =
    apply entry_inv0 ~loading_in:[| -1.0e-3 |] ~loading_out:(-1.0e-3)
  in
  Alcotest.(check bool) "non-negative" true
    (c.Report.isub >= 0.0 && c.Report.igate >= 0.0 && c.Report.ibtbt >= 0.0)

let test_characterize_grid_guards () =
  Alcotest.check_raises "points"
    (Invalid_argument "Characterize: grid needs >= 2 points") (fun () ->
      ignore
        (Characterize.characterize
           ~grid:{ Characterize.max_current = 1e-6; points = 1 }
           ~device ~temp Gate.Inv [| Logic.Zero |]))

(* The default axis's density as a property of the response: for every
   kind, vector and port at D25/300 K and D25-S/420 K, the table's linear
   interpolation at each segment midpoint of the default axis stays within
   0.03% of the entry's nominal total of a solve of the entry's own bench
   at that current, component by component (worst measured on 7 points:
   0.019% and 0.021%). Midpoints are where linear interpolation is
   furthest from its nodes. *)
let test_characterize_axis_midpoints () =
  List.iter
    (fun (label, device, temp) ->
      let worst = ref 0.0 in
      List.iter
        (fun kind ->
          List.iter
            (fun vector ->
              let e = Characterize.characterize ~device ~temp kind vector in
              let tb = Testbench.make kind vector in
              let bench = Testbench.compile ~device ~temp tb in
              let base = e.Characterize.nominal_driven in
              let scale = Report.total base in
              let xs = e.Characterize.currents in
              let ports =
                Array.append
                  (Array.mapi (fun k net -> (Characterize.In k, net))
                     tb.Testbench.pin_nets)
                  [| (Characterize.Out, tb.Testbench.out_net) |]
              in
              Array.iter
                (fun (port, net) ->
                  for j = 0 to Array.length xs - 2 do
                    let amps = 0.5 *. (xs.(j) +. xs.(j + 1)) in
                    let table = Characterize.delta e port amps in
                    let solved =
                      (Testbench.solve ~injections:[ (net, amps) ] bench)
                        .Testbench.leakage
                    in
                    List.iter
                      (fun pick ->
                        let off =
                          Float.abs (pick table -. (pick solved -. pick base))
                          /. scale
                        in
                        worst := Float.max !worst off;
                        if off > 3e-4 then
                          Alcotest.failf
                            "%s: %s %s at %g A: interpolation %.4f%% of \
                             the nominal total off the solve"
                            label (Gate.name kind)
                            (Logic.vector_to_string vector)
                            amps (100.0 *. off))
                      [ (fun c -> c.Report.isub); (fun c -> c.Report.igate);
                        (fun c -> c.Report.ibtbt) ]
                  done)
                ports)
            (Logic.all_vectors (Gate.arity kind)))
        Gate.all_kinds;
      Printf.printf "%s: worst midpoint residual %.4f%%\n" label
        (100.0 *. !worst))
    [ ("D25/300 K", Params.d25, 300.0); ("D25-S/420 K", Params.d25_s, 420.0) ]

(* [apply] reads the flat tables with its own search and sums in unboxed
   locals; it must land on exactly what the same samples give through
   [Interp.eval1d] and [Report.add] — pins in order, then the output, then
   [Float.max 0.0] — bit for bit. *)
let reference_apply (e : Characterize.entry) ~loading_in ~loading_out =
  let xs = e.Characterize.currents in
  let n = Array.length xs in
  let shift port amps =
    let at c =
      let ys =
        Array.init n (fun j -> e.Characterize.deltas.((3 * ((port * n) + j)) + c))
      in
      Interp.eval1d (Interp.grid1d ~xs ~ys) amps
    in
    { Report.isub = at 0; igate = at 1; ibtbt = at 2 }
  in
  let acc = ref e.Characterize.nominal_driven in
  Array.iteri (fun pin amps -> acc := Report.add !acc (shift pin amps)) loading_in;
  let c = Report.add !acc (shift (Array.length loading_in) loading_out) in
  {
    Report.isub = Float.max 0.0 c.Report.isub;
    igate = Float.max 0.0 c.Report.igate;
    ibtbt = Float.max 0.0 c.Report.ibtbt;
  }

let bits (c : Report.components) =
  List.map Int64.bits_of_float [ c.Report.isub; c.Report.igate; c.Report.ibtbt ]

let prop_apply_matches_reference =
  let loading (e : Characterize.entry) =
    let xs = e.Characterize.currents in
    let m = xs.(Array.length xs - 1) in
    QCheck2.Gen.(
      oneof
        [
          oneofa xs;
          float_range (-.m) m;
          map2 (fun k sign -> sign *. k *. m) (float_range 1.0 100.0)
            (oneofl [ 1.0; -1.0 ]);
          oneofl [ 0.0; -0.0 ];
        ])
  in
  let gen =
    QCheck2.Gen.(
      let* e = oneofl (Lazy.force apply_entries) in
      let* loading_in = array_repeat (Gate.arity e.Characterize.kind) (loading e) in
      let* loading_out = loading e in
      return (e, loading_in, loading_out))
  in
  let print (e, loading_in, loading_out) =
    Printf.sprintf "%s in=[%s] out=%h" (Gate.name e.Characterize.kind)
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") loading_in)))
      loading_out
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~print
       ~name:"apply equals eval1d reference bit for bit" gen
       (fun (e, loading_in, loading_out) ->
         let c, clamped = apply_counted e ~loading_in ~loading_out in
         let xs = e.Characterize.currents in
         let outside a = a < xs.(0) || a > xs.(Array.length xs - 1) in
         bits c = bits (reference_apply e ~loading_in ~loading_out)
         && clamped
            = List.length
                (List.filter outside (loading_out :: Array.to_list loading_in))))

(* -------------------------------------------------------------- Library *)

let test_library_caches () =
  let before = Library.entry_count lib in
  ignore (Library.entry lib Gate.Inv [| Logic.Zero |]);
  ignore (Library.entry lib Gate.Inv [| Logic.Zero |]);
  Alcotest.(check int) "no recharacterization" before (Library.entry_count lib)

let test_library_distinct_vectors () =
  ignore (Library.entry lib (Gate.Nand 2) (Logic.vector_of_string "00"));
  let n1 = Library.entry_count lib in
  ignore (Library.entry lib (Gate.Nand 2) (Logic.vector_of_string "01"));
  Alcotest.(check int) "new vector characterized" (n1 + 1) (Library.entry_count lib)

let test_library_accessors () =
  Alcotest.(check string) "device" device.Params.name (Library.device lib).Params.name;
  Alcotest.(check (float 0.0)) "temp" temp (Library.temp lib);
  Alcotest.(check (float 0.0)) "vdd" device.Params.vdd (Library.vdd lib)

let test_library_strength_range () =
  (* the packed key allots 10 bits to the strength bucket; out-of-range
     strengths used to saturate silently onto bucket 1023, aliasing every
     oversized cell onto one cache entry *)
  Alcotest.(check (float 0.0)) "max is 1023 quarter-steps" (1023.0 /. 4.0)
    Library.max_strength;
  Alcotest.(check bool) "max itself packs" true
    (Library.strength_in_range Library.max_strength);
  Alcotest.(check bool) "just beyond max rejected" false
    (Library.strength_in_range (Library.max_strength +. 0.25));
  Alcotest.(check bool) "zero rejected" false (Library.strength_in_range 0.0);
  Alcotest.(check bool) "negative rejected" false
    (Library.strength_in_range (-1.0));
  (* sub-eighth strengths clamp UP to the 0.25 bucket: coarser, never
     aliased with a different in-range strength *)
  Alcotest.(check bool) "tiny strength still packs" true
    (Library.strength_in_range 0.01)

let test_library_strength_guards () =
  Alcotest.check_raises "oversized strength raises"
    (Invalid_argument
       "Library: strength 256 exceeds the characterizable range (max 255.75)")
    (fun () -> ignore (Library.entry ~strength:256.0 lib Gate.Inv [| Logic.Zero |]));
  Alcotest.check_raises "non-positive strength raises"
    (Invalid_argument "Library: strength 0 must be positive")
    (fun () -> ignore (Library.entry ~strength:0.0 lib Gate.Inv [| Logic.Zero |]));
  (* int_of_float would wrap an infinite strength into bucket 1, the 0.25x
     cell *)
  Alcotest.check_raises "infinite strength raises"
    (Invalid_argument
       "Library: strength inf exceeds the characterizable range (max 255.75)")
    (fun () ->
      ignore (Library.entry ~strength:infinity lib Gate.Inv [| Logic.Zero |]));
  Alcotest.check_raises "NaN strength raises"
    (Invalid_argument "Library: strength nan must be positive")
    (fun () -> ignore (Library.entry ~strength:nan lib Gate.Inv [| Logic.Zero |]))

let test_library_vector_arity_guard () =
  (* 17 state bits cannot pack into the 16-bit vector field; the guard must
     fire before any characterization is attempted *)
  let before = Library.entry_count lib in
  Alcotest.check_raises "arity 17 raises"
    (Invalid_argument "Library: vector arity 17 exceeds the packable 16")
    (fun () -> ignore (Library.entry lib Gate.Inv (Array.make 17 Logic.Zero)));
  Alcotest.(check int) "nothing characterized" before (Library.entry_count lib)

let test_library_tiny_strength_shares_bucket () =
  ignore (Library.entry ~strength:0.25 lib Gate.Inv [| Logic.Zero |]);
  let n = Library.entry_count lib in
  (* 0.05 rounds to bucket 0, which clamps up to bucket 1 = 0.25 *)
  ignore (Library.entry ~strength:0.05 lib Gate.Inv [| Logic.Zero |]);
  Alcotest.(check int) "clamped into the 0.25 bucket" n (Library.entry_count lib)

(* Strengths on both sides of quarter-bucket edges: (2k+1)/8 quantizes up
   to bucket k+1, its float predecessor down to k (bucket 0 clamps to 1). *)
let edge_strengths =
  Array.of_list
    (List.concat_map
       (fun k ->
         let s = float_of_int ((2 * k) + 1) /. 8.0 in
         [ Float.pred s; s; Float.succ s ])
       [ 0; 1; 4; 7 ])

let edge_netlist rng =
  let b = Netlist.Builder.create "edges" in
  let inputs = Array.init (2 + Rng.int rng 3) (fun _ -> Netlist.Builder.input b) in
  let nets = ref (Array.to_list inputs) in
  let kinds = Array.of_list Gate.all_kinds in
  for _ = 1 to 3 + Rng.int rng 6 do
    let kind = Rng.pick rng kinds in
    let strength = Rng.pick rng edge_strengths in
    let ins =
      Array.init (Gate.arity kind) (fun _ ->
          List.nth !nets (Rng.int rng (List.length !nets)))
    in
    nets := Netlist.Builder.gate ~strength b kind ins :: !nets
  done;
  Netlist.Builder.mark_output b (List.hd !nets);
  Netlist.Builder.finish b

(* Two grid points: the cheapest characterization, for cold libraries. *)
let tiny_grid = { Characterize.max_current = 3.0e-6; points = 2 }

(* Every gate of a random netlist (every kind, strengths on bucket edges)
   reads physically the entry [Library.entry ~strength] returns for its
   kind and input vector: on a cold library the estimator fills first, on
   another the direct lookups fill first, and a second estimate reads the
   warm library. *)
let prop_kernel_reads_library_entries =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"kernel entries are Library.entry"
       QCheck2.Gen.(pair (int_bound 100_000) (int_bound 100_000))
       (fun (cseed, vseed) ->
         let nl = edge_netlist (Rng.create (cseed + 1)) in
         let v =
           Logic.random_vector (Rng.create (vseed + 1))
             (Array.length (Netlist.inputs nl))
         in
         let values = Simulate.run nl v in
         let direct l g =
           Library.entry ~strength:(Netlist.gate_strength nl g) l
             (Netlist.gate_kind nl g)
             (Array.init (Netlist.gate_arity nl g) (fun p ->
                  values.(Netlist.gate_pin nl g p)))
         in
         let kernel_entries l =
           let seen, _, _ =
             Estimator.estimate_fold ~init:[]
               ~f:(fun acc g e ~loaded:_ -> (g, e) :: acc)
               l nl v
           in
           seen
         in
         let agree what l seen =
           List.iter
             (fun (g, e) ->
               if not (e == direct l g) then
                 QCheck2.Test.fail_reportf "%s: gate %d (%s, strength %h)"
                   what g (Gate.name (Netlist.gate_kind nl g))
                   (Netlist.gate_strength nl g))
             seen
         in
         let fresh () = Library.create ~grid:tiny_grid ~device ~temp () in
         let cold = fresh () in
         let first = kernel_entries cold in
         agree "estimator first" cold first;
         let other = fresh () in
         for g = 0 to Netlist.gate_count nl - 1 do
           ignore (direct other g)
         done;
         agree "lookups first" other (kernel_entries other);
         let again = kernel_entries cold in
         agree "warm library" cold again;
         List.length first = Netlist.gate_count nl
         && List.for_all2 (fun (_, a) (_, b) -> a == b) first again))

(* Every estimator gate lookup is one library hit, shared hit or miss:
   [library.hits + library.shared_hits + library.misses] equals
   [estimator.gate_lookups] over estimator-only runs, cold and warm,
   sequential and on a 2-domain pool. *)
let test_library_counts_every_lookup () =
  let module Tm = Leakage_telemetry.Telemetry in
  let was = Tm.enabled () in
  Tm.set_enabled true;
  Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
  let names =
    [ "library.hits"; "library.shared_hits"; "library.misses";
      "estimator.gate_lookups" ]
  in
  let counts f =
    let read () =
      let snap = Tm.Snapshot.take () in
      List.map (Tm.Snapshot.counter_total snap) names
    in
    let before = read () in
    f ();
    List.map2 ( - ) (read ()) before
  in
  let nl = (Suite.find "s838").Suite.build () in
  let rng = Rng.create 41 in
  let vs =
    List.init 40 (fun _ ->
        Logic.random_vector rng (Array.length (Netlist.inputs nl)))
  in
  let check what f =
    match counts f with
    | [ hits; shared; misses; lookups ] ->
      if lookups = 0 || hits + shared + misses <> lookups then
        Alcotest.failf "%s: %d hits + %d shared + %d misses vs %d lookups"
          what hits shared misses lookups;
      misses
    | _ -> assert false
  in
  let run ?pool l () = ignore (Estimator.average_over_vectors ?pool l nl vs) in
  let cold = Library.create ~grid:tiny_grid ~device ~temp () in
  Alcotest.(check bool) "sequential, cold: misses" true
    (check "sequential, cold" (run cold) > 0);
  Alcotest.(check int) "sequential, warm: no miss" 0
    (check "sequential, warm" (run cold));
  Leakage_parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let cold = Library.create ~grid:tiny_grid ~device ~temp () in
      Alcotest.(check bool) "2 domains, cold: misses" true
        (check "2 domains, cold" (run ~pool cold) > 0);
      ignore (check "2 domains, warm" (run ~pool cold)))

(* ------------------------------------------------------------ Estimator *)

let chain_circuit () =
  (* pi -> inv -> nand2 with a side branch, 2 POs *)
  let b = Netlist.Builder.create "est_chain" in
  let a = Netlist.Builder.input ~name:"a" b in
  let c = Netlist.Builder.input ~name:"c" b in
  let n1 = Netlist.Builder.gate b Gate.Inv [| a |] in
  let n2 = Netlist.Builder.gate b (Gate.Nand 2) [| n1; c |] in
  let n3 = Netlist.Builder.gate b Gate.Inv [| n2 |] in
  let n4 = Netlist.Builder.gate b (Gate.Nor 2) [| n2; n3 |] in
  Netlist.Builder.mark_output b n3;
  Netlist.Builder.mark_output b n4;
  Netlist.Builder.finish b

let test_estimator_totals_are_sums () =
  let nl = chain_circuit () in
  let r = Estimator.estimate lib nl (Logic.vector_of_string "01") in
  let s =
    Array.fold_left
      (fun acc g -> Report.add acc g.Estimator.with_loading)
      Report.zero r.Estimator.per_gate
  in
  Alcotest.(check (float 1e-16)) "totals" (Report.total r.Estimator.totals)
    (Report.total s)

let test_estimator_baseline_is_isolated_sum () =
  let nl = chain_circuit () in
  let r = Estimator.estimate lib nl (Logic.vector_of_string "01") in
  Array.iter
    (fun (g : Estimator.gate_estimate) ->
      let e =
        Library.entry lib (Netlist.gate_kind nl g.Estimator.gate)
          g.Estimator.vector
      in
      Alcotest.(check (float 1e-18)) "baseline entry"
        (Report.total e.Characterize.nominal_isolated)
        (Report.total g.Estimator.no_loading))
    r.Estimator.per_gate

(* Eq. (3) on a primary-input pin: the pin is loaded with exactly minus
   the cell's own nominal pin current. *)
let check_pi_pin nl (r : Estimator.result) g =
  let ge = r.Estimator.per_gate.(g) in
  let e = Library.entry lib (Netlist.gate_kind nl g) ge.Estimator.vector in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "gate %d: PI pin reads minus its own current" g)
    (-.e.Characterize.pin_injection.(0))
    ge.Estimator.loading_in.(0)

let test_estimator_loading_excludes_self () =
  (* on a single-fanout net the consumer sees zero input loading *)
  let b = Netlist.Builder.create "solo" in
  let a = Netlist.Builder.input b in
  let n1 = Netlist.Builder.gate b Gate.Inv [| a |] in
  let n2 = Netlist.Builder.gate b Gate.Inv [| n1 |] in
  Netlist.Builder.mark_output b n2;
  let nl = Netlist.Builder.finish b in
  let r = Estimator.estimate lib nl [| Logic.Zero |] in
  Alcotest.(check (float 1e-15)) "no siblings -> no input loading" 0.0
    r.Estimator.per_gate.(1).Estimator.loading_in.(0);
  check_pi_pin nl r 0

let test_estimator_pi_net_no_sibling () =
  (* a primary-input net feeding two cells: each pin sees only minus its
     own current, never its sibling's, though the net carries both *)
  let b = Netlist.Builder.create "pi_siblings" in
  let a = Netlist.Builder.input b in
  let c = Netlist.Builder.input b in
  let n1 = Netlist.Builder.gate b Gate.Inv [| a |] in
  let n2 = Netlist.Builder.gate b (Gate.Nand 2) [| a; c |] in
  Netlist.Builder.mark_output b n1;
  Netlist.Builder.mark_output b n2;
  let nl = Netlist.Builder.finish b in
  List.iter
    (fun pattern ->
      let r = Estimator.estimate lib nl (Logic.vector_of_string pattern) in
      check_pi_pin nl r 0;
      check_pi_pin nl r 1;
      Alcotest.(check bool) "the net carries a sibling term" true
        (r.Estimator.net_injection.(a)
         <> -.r.Estimator.per_gate.(0).Estimator.loading_in.(0)))
    [ "00"; "10" ]

let test_estimator_sibling_loading_positive () =
  (* two gates sharing a '0' net load each other with positive current *)
  let b = Netlist.Builder.create "siblings" in
  let a = Netlist.Builder.input b in
  let n1 = Netlist.Builder.gate b Gate.Inv [| a |] in
  let n2 = Netlist.Builder.gate b Gate.Inv [| n1 |] in
  let n3 = Netlist.Builder.gate b Gate.Inv [| n1 |] in
  Netlist.Builder.mark_output b n2;
  Netlist.Builder.mark_output b n3;
  let nl = Netlist.Builder.finish b in
  (* pattern 1 -> n1 = 0 -> sibling pins inject *)
  let r = Estimator.estimate lib nl [| Logic.One |] in
  Alcotest.(check bool) "gate 1 loaded by gate 2" true
    (r.Estimator.per_gate.(1).Estimator.loading_in.(0) > 0.0);
  Alcotest.(check bool) "net injection recorded" true
    (r.Estimator.net_injection.(n1) > 0.0)

let test_estimator_matches_spice_on_chain () =
  let nl = chain_circuit () in
  List.iter
    (fun pattern ->
      let v = Logic.vector_of_string pattern in
      let est = Estimator.estimate lib nl v in
      let spice, _, _ = Leakage_spice.Leakage_report.analyze ~device ~temp nl v in
      let err =
        abs_float
          (Report.total est.Estimator.totals
          -. Report.total spice.Report.totals)
        /. Report.total spice.Report.totals
      in
      if err > 0.02 then
        Alcotest.failf "pattern %s: estimator off by %.2f%%" pattern (err *. 100.0))
    [ "00"; "01"; "10"; "11" ]

let test_estimator_average_over_vectors () =
  let nl = chain_circuit () in
  let vs = [ Logic.vector_of_string "00"; Logic.vector_of_string "11" ] in
  let loaded, base = Estimator.average_over_vectors lib nl vs in
  Alcotest.(check bool) "positive averages" true
    (Report.total loaded > 0.0 && Report.total base > 0.0)

(* Allocation gate, deterministic in a sequential run: with a warm library,
   telemetry off and a reused scratch, the estimator kernel allocates
   nothing per gate, only a few records per estimate — and a resampled
   vector costs one estimate plus its chunk's scratch. Measured: 0.11 and
   0.27 words per gate-vector, 2.22 and 6.58 per resampled gate (s838,
   alu88), each bound 25% above the larger; 3.37 and 6.52 per resampled
   gate since a scratch indexes its netlist's cells. *)
let test_estimator_minor_words () =
  let module Tm = Leakage_telemetry.Telemetry in
  let was_enabled = Tm.enabled () in
  Tm.set_enabled false;
  Fun.protect ~finally:(fun () -> Tm.set_enabled was_enabled) @@ fun () ->
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  List.iter
    (fun name ->
      let nl = (Suite.find name).Suite.build () in
      Netlist.warm nl;
      let gates = float_of_int (Netlist.gate_count nl) in
      let rng = Rng.create 17 in
      let vectors =
        Array.init 8 (fun _ ->
            Logic.random_vector rng (Array.length (Netlist.inputs nl)))
      in
      let scratch = Estimator.scratch nl in
      let estimate_all () =
        Array.iter
          (fun v -> ignore (Estimator.estimate_totals ~scratch lib nl v))
          vectors
      in
      let resample_one () =
        ignore (Vector_mc.resample ~seed:5 ~samples:1 lib nl)
      in
      (* warm-up: characterize every key the measured calls touch *)
      estimate_all ();
      resample_one ();
      let per_gate_vector = words estimate_all /. (gates *. 8.0) in
      let per_sample_gate = words resample_one /. gates in
      if per_gate_vector > 0.34 then
        Alcotest.failf
          "%s: estimate_totals allocates %.3f words per gate-vector (> 0.34)"
          name per_gate_vector;
      if per_sample_gate > 8.23 then
        Alcotest.failf "%s: one resample allocates %.2f words per gate (> 8.23)"
          name per_sample_gate)
    [ "alu88"; "s838" ]

(* [estimator.clamped_lookups] counts, once per estimate, the ports (input
   pins and outputs) whose loading lies strictly outside their entry's
   current axis: it equals a recount from [estimate]'s per-gate loadings.
   At the default grid (±3 µA) alu88's loading stays inside (it peaks at
   2.6 µA); s13207's heavy fanout nets do not. *)
let test_estimator_clamped_lookups () =
  let module Tm = Leakage_telemetry.Telemetry in
  let lib = Library.create ~device ~temp () in
  let clamped name =
    let nl = (Suite.find name).Suite.build () in
    let v =
      Logic.random_vector (Rng.create 3) (Array.length (Netlist.inputs nl))
    in
    let count () =
      Tm.Snapshot.counter_total (Tm.Snapshot.take ())
        "estimator.clamped_lookups"
    in
    let was = Tm.enabled () in
    Tm.set_enabled true;
    let before = count () in
    let r =
      Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
      Estimator.estimate lib nl v
    in
    let counted = count () - before in
    let recount =
      Array.fold_left
        (fun acc (ge : Estimator.gate_estimate) ->
          let g = ge.Estimator.gate in
          let e =
            Library.entry ~strength:(Netlist.gate_strength nl g) lib
              (Netlist.gate_kind nl g) ge.Estimator.vector
          in
          let xs = e.Characterize.currents in
          let outside a = a < xs.(0) || a > xs.(Array.length xs - 1) in
          acc
          + List.length
              (List.filter outside
                 (ge.Estimator.loading_out
                 :: Array.to_list ge.Estimator.loading_in)))
        0 r.Estimator.per_gate
    in
    Alcotest.(check int) (name ^ ": counter equals the recount") recount
      counted;
    counted
  in
  Alcotest.(check int) "alu88 stays on the axis" 0 (clamped "alu88");
  Alcotest.(check bool) "s13207 leaves it" true (clamped "s13207" > 0)

let test_estimator_scratch_not_aliased () =
  (* regression: with ~scratch, result.assignment used to alias the buffer,
     so the next run_into on the same scratch mutated the earlier result;
     the net injections live in the scratch too *)
  let nl = chain_circuit () in
  let scratch = Estimator.scratch nl in
  let r1 = Estimator.estimate ~scratch lib nl (Logic.vector_of_string "00") in
  let snapshot = Array.copy r1.Estimator.assignment in
  let injection = Array.copy r1.Estimator.net_injection in
  let r2 = Estimator.estimate ~scratch lib nl (Logic.vector_of_string "11") in
  Alcotest.(check bool) "first result survives second estimate" true
    (r1.Estimator.assignment = snapshot
    && r1.Estimator.net_injection = injection);
  Alcotest.(check bool) "two patterns produce distinct assignments" false
    (r1.Estimator.assignment = r2.Estimator.assignment)

(* ------------------------------------------------------------ Ablations *)

(* Paper eq. 5: summing per-pin 1-D tables stands in for the joint
   (I_in, I_out) loading. The inputs of bench/main.exe
   ablation-superposition, whose worst errors on the default 7-point axis
   are 0.0965% (input 0) and 0.0585% (input 1); 0.0820% and 0.0496% on 21
   points, where the tables' own interpolation error is smaller. *)
let test_ablation_superposition () =
  let grid = Interp.linspace (-2.4e-6) 2.4e-6 5 in
  List.iter
    (fun input_value ->
      let v = [| input_value |] in
      let entry = Characterize.characterize ~device ~temp Gate.Inv v in
      let tb = Testbench.make Gate.Inv v in
      let bench = Testbench.compile ~device ~temp tb in
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
              let approx =
                apply entry ~loading_in:[| i_in |] ~loading_out:i_out
              in
              let err =
                abs_float
                  ((Report.total approx -. Report.total exact)
                  /. Report.total exact)
              in
              if err > 1e-3 then
                Alcotest.failf
                  "INV input %c, I_in %g A, I_out %g A: superposition off by \
                   %.4f%% (> 0.1%%)"
                  (Logic.to_char input_value) i_in i_out (err *. 100.0))
            grid)
        grid)
    [ Logic.Zero; Logic.One ]

(* Paper §6: loading need not propagate past one level. The inputs of
   bench/main.exe ablation-onelevel: the no-loading sum is 0.55-1.94% off
   the solver, one pass 0.07-0.18%, and a second pass moves the total by
   0.0009-0.0062%. *)
let test_ablation_one_level () =
  let lib = Library.create ~device ~temp () in
  List.iter
    (fun label ->
      let nl = (Suite.find label).Suite.build () in
      let pattern = List.hd (Simulate.random_patterns (Rng.create 5) nl 1) in
      let spice, _, _ = Report.analyze ~device ~temp nl pattern in
      let reference = Report.total spice.Report.totals in
      let off v = abs_float ((v -. reference) /. reference) *. 100.0 in
      let one = Estimator.estimate lib nl pattern in
      let two = Estimator.estimate ~passes:2 lib nl pattern in
      let no_loading = Report.total one.Estimator.baseline_totals in
      let one_pass = Report.total one.Estimator.totals in
      let two_pass = Report.total two.Estimator.totals in
      if not (off one_pass < off no_loading) then
        Alcotest.failf
          "%s: one pass is %.3f%% off the solver, no closer than the \
           no-loading sum (%.3f%%)"
          label (off one_pass) (off no_loading);
      let moved = abs_float ((two_pass -. one_pass) /. one_pass) *. 100.0 in
      if moved >= 0.01 then
        Alcotest.failf "%s: a second pass moves the total by %.4f%% (>= 0.01%%)"
          label moved)
    [ "s838"; "s1196"; "alu88"; "mult88" ]

(* [estimate], [estimate_totals] and [estimate_fold] fold over one per-gate
   loop; all three must land on the same totals bit for bit, the fold must
   visit gates in id order with [estimate]'s per-gate components, and
   [estimate]'s per-gate rows must be indexed by gate id with the logic
   values a direct [gate_pin] scan reads. *)
let prop_estimator_loops_agree =
  let same a b = bits a = bits b in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"per-gate loops agree bit for bit"
       QCheck2.Gen.(tup3 (int_bound 100_000) (int_bound 100_000) (int_range 1 2))
       (fun (cseed, vseed, passes) ->
         let nl = Diff_harness.random_netlist (Rng.create (cseed + 1)) in
         let v =
           Logic.random_vector (Rng.create (vseed + 1))
             (Array.length (Netlist.inputs nl))
         in
         let r = Estimator.estimate ~passes lib nl v in
         let loaded, baseline = Estimator.estimate_totals ~passes lib nl v in
         let next, fold_loaded, fold_baseline =
           Estimator.estimate_fold ~passes ~init:0
             ~f:(fun expect g e ~loaded ->
               let ge = r.Estimator.per_gate.(g) in
               if g <> expect
                  || not (same ({ Report.isub = loaded.(0); igate = loaded.(1); ibtbt = loaded.(2) }) ge.Estimator.with_loading)
                  || not (same e.Characterize.nominal_isolated ge.Estimator.no_loading)
               then QCheck2.Test.fail_reportf "fold disagrees at gate %d" g;
               g + 1)
             lib nl v
         in
         let row_ok g (ge : Estimator.gate_estimate) =
           ge.Estimator.gate = g
           && ge.Estimator.vector
              = Array.init (Netlist.gate_arity nl g) (fun p ->
                    r.Estimator.assignment.(Netlist.gate_pin nl g p))
         in
         next = Netlist.gate_count nl
         && Array.length r.Estimator.per_gate = next
         && Array.for_all Fun.id (Array.mapi row_ok r.Estimator.per_gate)
         && same r.Estimator.totals loaded
         && same r.Estimator.baseline_totals baseline
         && same r.Estimator.totals fold_loaded
         && same r.Estimator.baseline_totals fold_baseline))

(* ------------------------------------------------------- Kernel callers *)

(* [Probabilistic] and [Incremental] evaluate each gate through the
   estimator's [gate_leakage] with injections they keep themselves. Where
   their answer must be a fresh [estimate_totals], it is one bit for bit:
   at a cool corner and at two hot ones, where loading is largest. Each
   corner carries a high-Vth library for [Relib] edits. *)
let caller_corners =
  lazy
    (List.map
       (fun (device, temp) ->
         let grid = Diff_harness.coarse_grid in
         let hvt = Leakage_incremental.Dual_vth.high_vth_device device in
         ( Printf.sprintf "%s/%.0fK" device.Params.name temp,
           Library.create ~grid ~device ~temp (),
           Library.create ~grid ~device:hvt ~temp ~vdd:device.Params.vdd () ))
       [ (Params.d25, 300.0); (Params.d25, 420.0); (Params.d25_s, 420.0) ])

let for_each_corner f =
  List.iter (fun (name, lib, hvt) -> f name lib hvt) (Lazy.force caller_corners);
  true

let same_totals (a, b) (c, d) = bits a = bits c && bits b = bits d

(* With every input probability at 0 or 1 each gate has one state of
   probability exactly 1, so the expectation is one estimate. *)
let prop_probabilistic_matches_estimator =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"probabilistic on 0/1 inputs = estimate_totals"
       QCheck2.Gen.(tup2 (int_bound 100_000) (int_bound 100_000))
       (fun (cseed, vseed) ->
         let nl = Diff_harness.random_netlist (Rng.create (cseed + 1)) in
         let v = Diff_harness.random_pattern (Rng.create (vseed + 1)) nl in
         let input_probability =
           Array.map (fun b -> if Logic.to_bool b then 1.0 else 0.0) v
         in
         for_each_corner (fun name lib _ ->
             let e =
               Leakage_core.Probabilistic.expected_leakage ~input_probability
                 lib nl
             in
             if
               not
                 (same_totals
                    ( e.Leakage_core.Probabilistic.totals,
                      e.Leakage_core.Probabilistic.baseline_totals )
                    (Estimator.estimate_totals lib nl v))
             then QCheck2.Test.fail_reportf "%s: expectation differs" name)))

(* A batch holding every edit kind; [Relib] moves gates to [hvt]. *)
let every_kind_batch rng nl ~hvt =
  let gate () = Rng.int rng (Netlist.gate_count nl) in
  let edit = function
    | 0 -> Edit.random_resize ~strengths:Diff_harness.palette rng nl
    | 1 ->
      let g = gate () in
      Edit.Retype
        ( g,
          match (Netlist.gate_arity nl g, Rng.bool rng) with
          | 1, true -> Gate.Inv
          | 1, false -> Gate.Buf
          | _, true -> Gate.Nand 2
          | _, false -> Gate.Nor 2 )
    | 2 -> Edit.Relib (gate (), hvt)
    | _ -> Edit.random_set_input rng nl
  in
  List.concat_map
    (fun kind -> List.init (1 + Rng.int rng 2) (fun _ -> edit kind))
    [ 0; 1; 2; 3 ]

let prop_incremental_matches_estimator =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"incremental session = estimate_totals after create and refresh"
       QCheck2.Gen.(tup2 (int_bound 100_000) (int_bound 100_000))
       (fun (cseed, eseed) ->
         let rng = Rng.create (cseed + 1) in
         let nl = Diff_harness.random_netlist rng in
         let pattern = Diff_harness.random_pattern rng nl in
         for_each_corner (fun name lib hvt ->
             let s = Incremental.create lib nl pattern in
             let check stage =
               let fresh =
                 Estimator.estimate_totals
                   ~library_of_gate:(Incremental.library_of_gate s) lib
                   (Incremental.current_netlist s) (Incremental.pattern s)
               in
               if
                 not
                   (same_totals
                      (Incremental.totals s, Incremental.baseline_totals s)
                      fresh)
               then QCheck2.Test.fail_reportf "%s: session differs %s" name stage
             in
             check "after create";
             Incremental.apply_batch s
               (every_kind_batch (Rng.create (eseed + 1)) nl ~hvt);
             Incremental.refresh s;
             check "after edits and refresh")))

(* -------------------------------------------------------------- Loading *)

let test_loading_input_sweep_shape () =
  let pts =
    Loading.input_sweep ~device ~temp
      ~currents:[| 0.0; 1.0e-6; 2.0e-6 |]
      Gate.Inv [| Logic.Zero |]
  in
  Alcotest.(check int) "3 points" 3 (Array.length pts);
  Alcotest.(check (float 1e-9)) "zero at origin" 0.0 pts.(0).Loading.ld_total;
  Alcotest.(check bool) "sub LD grows" true
    (pts.(2).Loading.ld_sub > pts.(1).Loading.ld_sub
    && pts.(1).Loading.ld_sub > 0.0);
  Alcotest.(check bool) "gate LD negative" true (pts.(2).Loading.ld_gate < 0.0)

let test_loading_output_sweep_negative () =
  let pts =
    Loading.output_sweep ~device ~temp
      ~currents:[| 0.0; 2.0e-6 |]
      Gate.Inv [| Logic.Zero |]
  in
  Alcotest.(check bool) "all components drop" true
    (pts.(1).Loading.ld_sub < 0.0
    && pts.(1).Loading.ld_gate < 0.0
    && pts.(1).Loading.ld_btbt < 0.0)

let test_loading_input0_stronger_than_input1 () =
  (* Fig 5: per unit loading current, input '0' reacts more than input '1' *)
  let at vector =
    (Loading.input_sweep ~device ~temp ~currents:[| 0.0; 2.0e-6 |] Gate.Inv
       vector).(1)
      .Loading.ld_total
  in
  Alcotest.(check bool) "LD_IN(0) > LD_IN(1)" true
    (at [| Logic.Zero |] > at [| Logic.One |])

let test_loading_nand_stacking_dependence () =
  (* Fig 7: input loading weaker at 00 than at 01 (stacking suppresses the
     subthreshold path the loading acts on) *)
  let at vector =
    (Loading.input_sweep ~device ~temp ~currents:[| 0.0; 2.0e-6 |]
       (Gate.Nand 2) (Logic.vector_of_string vector)).(1)
      .Loading.ld_total
  in
  Alcotest.(check bool) "00 weaker than 01" true (at "00" < at "01")

let test_loading_combined () =
  let p =
    Loading.combined ~device ~temp ~input_current:1.0e-6 ~output_current:1.0e-6
      Gate.Inv [| Logic.Zero |]
  in
  Alcotest.(check bool) "finite" true (Float.is_finite p.Loading.ld_total)

let test_loading_pin_guard () =
  Alcotest.check_raises "bad pin" (Invalid_argument "Loading.input_sweep: bad pin")
    (fun () ->
      ignore (Loading.input_sweep ~device ~temp ~pin:5 Gate.Inv [| Logic.Zero |]))

let test_loading_temperature_sweep () =
  let pts =
    Loading.temperature_sweep ~device ~temps_celsius:[| 27.0; 100.0 |]
      ~input_current:1.0e-6 ~output_current:1.0e-6 Gate.Inv [| Logic.Zero |]
  in
  Alcotest.(check int) "2 points" 2 (Array.length pts);
  let _, cold = pts.(0) and _, hot = pts.(1) in
  (* Fig 9: the subthreshold loading effect strengthens with temperature *)
  Alcotest.(check bool) "sub LD grows with T" true
    (hot.Loading.ld_sub > cold.Loading.ld_sub)

(* ---------------------------------------------------------- Monte Carlo *)

let mc_config =
  { Monte_carlo.n_samples = 60; seed = 11; n_load_in = 6; n_load_out = 6;
    input_value = Logic.Zero }

let test_mc_reproducible () =
  let sigmas = Variation.paper_sigmas in
  let a = Monte_carlo.run ~config:mc_config ~device ~temp ~sigmas () in
  let b = Monte_carlo.run ~config:mc_config ~device ~temp ~sigmas () in
  Alcotest.(check bool) "same seed, same samples" true
    (Array.for_all2
       (fun (x : Monte_carlo.sample) (y : Monte_carlo.sample) ->
         Report.total x.Monte_carlo.loaded = Report.total y.Monte_carlo.loaded)
       a b)

let test_mc_loading_shifts_subthreshold_up () =
  let sigmas = Variation.paper_sigmas in
  let samples = Monte_carlo.run ~config:mc_config ~device ~temp ~sigmas () in
  let loaded, unloaded =
    Monte_carlo.component_arrays samples ~pick:(fun c -> c.Report.isub)
  in
  Alcotest.(check bool) "mean sub up under loading" true
    (Stats.mean loaded > Stats.mean unloaded)

let test_mc_variation_spreads_leakage () =
  let sigmas = Variation.paper_sigmas in
  let samples = Monte_carlo.run ~config:mc_config ~device ~temp ~sigmas () in
  let loaded, _ = Monte_carlo.component_arrays samples ~pick:Report.total in
  Alcotest.(check bool) "non-degenerate spread" true
    (Stats.std loaded > 0.05 *. Stats.mean loaded)

let test_mc_sample_guard () =
  Alcotest.check_raises "n_samples" (Invalid_argument "Monte_carlo.run: n_samples")
    (fun () ->
      ignore
        (Monte_carlo.run
           ~config:{ mc_config with Monte_carlo.n_samples = 0 }
           ~device ~temp ~sigmas:Variation.paper_sigmas ()))

let test_min_vector_depends_on_flavour () =
  (* §4: NAND2 minimum-leakage vector is '00' for a subthreshold-dominated
     device but '10' for a gate-tunneling-dominated one *)
  let min_vector device =
    let best = ref ("", infinity) in
    List.iter
      (fun vector ->
        let c =
          Testbench.isolated_components ~device ~temp:300.0 (Gate.Nand 2)
            (Logic.vector_of_string vector)
        in
        let total = Report.total c in
        if total < snd !best then best := (vector, total))
      [ "00"; "01"; "10"; "11" ];
    fst !best
  in
  Alcotest.(check string) "sub-dominated minimum" "00" (min_vector Params.d25_s);
  Alcotest.(check string) "gate-dominated minimum" "10" (min_vector Params.d25_g)

let test_multi_pass_estimator_close_to_single_pass () =
  (* §6: loading does not propagate meaningfully beyond one level, so a
     second pass must barely move the estimate *)
  let nl = chain_circuit () in
  let v = Logic.vector_of_string "01" in
  let one = Estimator.estimate lib nl v in
  let two = Estimator.estimate ~passes:2 lib nl v in
  let t1 = Report.total one.Estimator.totals in
  let t2 = Report.total two.Estimator.totals in
  Alcotest.(check bool) "pass 2 within 0.5% of pass 1" true
    (abs_float (t2 -. t1) /. t1 < 0.005)

let test_estimator_passes_guard () =
  let nl = chain_circuit () in
  Alcotest.check_raises "passes >= 1"
    (Invalid_argument "Estimator.estimate: passes must be >= 1") (fun () ->
      ignore (Estimator.estimate ~passes:0 lib nl (Logic.vector_of_string "00")))

let test_pin_response_zero_matches_nominal () =
  let e = Library.entry lib Gate.Inv [| Logic.Zero |] in
  Alcotest.(check (float 1e-12)) "response(0) = nominal pin current"
    e.Characterize.pin_injection.(0)
    (Leakage_numeric.Interp.eval1d e.Characterize.pin_response.(0) 0.0)

(* ---------------------------------------------------------- Statistical *)

let small_random_circuit () =
  let p = { Leakage_benchmarks.Iscas.profile_name = "mini"; n_pi = 5;
            n_po = 3; n_ff = 2; n_gates = 25 } in
  Leakage_benchmarks.Iscas.generate ~seed:3 p

let test_statistical_reproducible () =
  let nl = small_random_circuit () in
  let rng = Rng.create 9 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let sigmas = Variation.paper_sigmas in
  let run () =
    Leakage_core.Statistical.run ~n_samples:30 ~seed:4 ~sigmas lib nl pattern
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed same samples" true
    (a.Leakage_core.Statistical.total_with_loading
     = b.Leakage_core.Statistical.total_with_loading)

let test_statistical_matches_solver_mc () =
  (* the quadratic-log fast model must track a transistor-level Monte Carlo
     on the same circuit within a few percent on the mean *)
  let nl = small_random_circuit () in
  let rng = Rng.create 9 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let sigmas = Variation.paper_sigmas in
  let n = 120 in
  let fast =
    Leakage_core.Statistical.run ~n_samples:n ~seed:5 ~sigmas lib nl pattern
  in
  let assign = Simulate.run nl pattern in
  let mcrng = Rng.create 5 in
  let reference =
    Array.init n (fun _ ->
        let s = Rng.split mcrng in
        let die = Variation.sample_die s sigmas in
        let die_dev = Variation.apply_die device die in
        let shifts = Array.make (Netlist.gate_count nl) 0.0 in
        Array.iteri
          (fun g _ -> Variation.sample_gate_vth_into s sigmas shifts g)
          shifts;
        let device_of_gate id = Variation.apply_gate die_dev shifts.(id) in
        let flat =
          Leakage_spice.Flatten.flatten ~device_of_gate ~device:die_dev
            ~temp:300.0 nl assign
        in
        let k = Leakage_spice.Dc_solver.kernel flat in
        let sol = Leakage_spice.Dc_solver.run k in
        Report.total
          (Report.of_solution k sol.Leakage_spice.Dc_solver.voltages)
            .Report.totals)
  in
  let mf = Stats.mean fast.Leakage_core.Statistical.total_with_loading in
  let mr = Stats.mean reference in
  Alcotest.(check bool)
    (Printf.sprintf "means within 8%% (fast %.3e, ref %.3e)" mf mr)
    true
    (abs_float (mf -. mr) /. mr < 0.08);
  let sf = Stats.std fast.Leakage_core.Statistical.total_with_loading in
  let sr = Stats.std reference in
  Alcotest.(check bool)
    (Printf.sprintf "sigmas within 35%% (fast %.3e, ref %.3e)" sf sr)
    true
    (abs_float (sf -. sr) /. sr < 0.35)

let test_statistical_loading_shift () =
  let nl = small_random_circuit () in
  let rng = Rng.create 9 in
  let pattern = List.hd (Simulate.random_patterns rng nl 1) in
  let r =
    Leakage_core.Statistical.run ~n_samples:60 ~seed:2
      ~sigmas:Variation.paper_sigmas lib nl pattern
  in
  let loaded, unloaded = Leakage_core.Statistical.summary r in
  Alcotest.(check bool) "loading raises the mean" true
    (loaded.Stats.mean > unloaded.Stats.mean)

let test_statistical_die_scale_nominal () =
  let scale = Leakage_core.Statistical.die_scale lib Variation.nominal_die in
  Alcotest.(check (float 1e-6)) "sub factor 1" 1.0 scale.Report.isub;
  Alcotest.(check (float 1e-6)) "gate factor 1" 1.0 scale.Report.igate

let test_statistical_guard () =
  let nl = small_random_circuit () in
  Alcotest.check_raises "n_samples" (Invalid_argument "Statistical.run: n_samples")
    (fun () ->
      ignore
        (Leakage_core.Statistical.run ~n_samples:0
           ~sigmas:Variation.paper_sigmas lib nl
           (Array.make (Array.length (Netlist.inputs nl)) Logic.Zero)))

(* ------------------------------------------------------------- Strength *)

let test_strength_scales_isolated_leakage () =
  let base =
    Testbench.isolated_components ~device ~temp Gate.Inv [| Logic.Zero |]
  in
  let x2 =
    Testbench.isolated_components ~strength:2.0 ~device ~temp Gate.Inv
      [| Logic.Zero |]
  in
  Alcotest.(check (float 1e-3)) "2x cell leaks 2x" 2.0
    (Report.total x2 /. Report.total base)

let test_strength_estimator_matches_solver () =
  (* mixed-strength circuit: the estimator's per-bucket entries must still
     track the transistor-level solution *)
  let b = Netlist.Builder.create "strengths" in
  let a = Netlist.Builder.input b in
  let c = Netlist.Builder.input b in
  let n1 = Netlist.Builder.gate ~strength:2.0 b Gate.Inv [| a |] in
  let n2 = Netlist.Builder.gate ~strength:0.5 b (Gate.Nand 2) [| n1; c |] in
  let n3 = Netlist.Builder.gate ~strength:4.0 b Gate.Inv [| n2 |] in
  Netlist.Builder.mark_output b n3;
  let nl = Netlist.Builder.finish b in
  List.iter
    (fun pattern ->
      let v = Logic.vector_of_string pattern in
      let est = Estimator.estimate lib nl v in
      let spice, _, _ =
        Leakage_spice.Leakage_report.analyze ~device ~temp nl v
      in
      let err =
        abs_float
          (Report.total est.Estimator.totals
          -. Report.total spice.Report.totals)
        /. Report.total spice.Report.totals
      in
      if err > 0.02 then
        Alcotest.failf "pattern %s: %.2f%% error" pattern (err *. 100.0))
    [ "00"; "01"; "10"; "11" ]

let test_strength_library_buckets () =
  let n0 = Library.entry_count lib in
  ignore (Library.entry ~strength:3.0 lib Gate.Inv [| Logic.Zero |]);
  let n1 = Library.entry_count lib in
  Alcotest.(check bool) "new bucket characterized" true (n1 > n0);
  (* 3.05 quantizes into the same quarter-step bucket as 3.0 *)
  ignore (Library.entry ~strength:3.05 lib Gate.Inv [| Logic.Zero |]);
  Alcotest.(check int) "bucket shared" n1 (Library.entry_count lib)

let test_strength_builder_guard () =
  let b = Netlist.Builder.create "g" in
  let a = Netlist.Builder.input b in
  List.iter
    (fun (label, strength) ->
      Alcotest.check_raises label
        (Invalid_argument "Builder.gate: strength must be finite and positive")
        (fun () -> ignore (Netlist.Builder.gate ~strength b Gate.Inv [| a |])))
    [ ("non-positive strength", 0.0); ("infinite strength", infinity);
      ("NaN strength", nan) ]

(* --------------------------------------------------------------- MTCMOS *)

let test_mtcmos_standby_collapses_leakage () =
  let nl = chain_circuit () in
  let r =
    Leakage_core.Mtcmos.analyze ~device ~temp:300.0 nl
      (Logic.vector_of_string "01")
  in
  Alcotest.(check bool) "both modes converged" true
    (r.Leakage_core.Mtcmos.active.Leakage_core.Mtcmos.converged
     && r.Leakage_core.Mtcmos.standby.Leakage_core.Mtcmos.converged);
  Alcotest.(check bool) "standby cuts more than half" true
    (r.Leakage_core.Mtcmos.standby_reduction_percent > 50.0);
  let vg = r.Leakage_core.Mtcmos.standby.Leakage_core.Mtcmos.virtual_ground in
  Alcotest.(check bool) "virtual ground floats up" true
    (vg > 0.1 && vg < device.Params.vdd);
  Alcotest.(check bool) "active virtual ground stays near 0" true
    (r.Leakage_core.Mtcmos.active.Leakage_core.Mtcmos.virtual_ground < 0.05)

let test_mtcmos_width_tradeoff () =
  let nl = chain_circuit () in
  let at sleep_width =
    Leakage_core.Mtcmos.analyze ~sleep_width ~device ~temp:300.0 nl
      (Logic.vector_of_string "01")
  in
  let narrow = at 2.0 and wide = at 40.0 in
  Alcotest.(check bool) "wider footer: lower active virtual ground" true
    (wide.Leakage_core.Mtcmos.active.Leakage_core.Mtcmos.virtual_ground
     < narrow.Leakage_core.Mtcmos.active.Leakage_core.Mtcmos.virtual_ground);
  Alcotest.(check bool) "wider footer: more standby footer leakage" true
    (Report.total wide.Leakage_core.Mtcmos.standby.Leakage_core.Mtcmos.footer_leakage
     > Report.total
         narrow.Leakage_core.Mtcmos.standby.Leakage_core.Mtcmos.footer_leakage)

let test_mtcmos_footer_zero_when_ungated () =
  let nl = chain_circuit () in
  let report, _, _ =
    Leakage_spice.Leakage_report.analyze ~device ~temp:300.0 nl
      (Logic.vector_of_string "01")
  in
  Alcotest.(check (float 0.0)) "no footer leakage without gating" 0.0
    (Report.total report.Report.footer)

let test_mtcmos_guard () =
  let nl = chain_circuit () in
  Alcotest.check_raises "width"
    (Invalid_argument "Mtcmos.analyze: non-positive sleep width") (fun () ->
      ignore
        (Leakage_core.Mtcmos.analyze ~sleep_width:0.0 ~device ~temp:300.0 nl
           (Logic.vector_of_string "01")))

(* -------------------------------------------------------------- Thermal *)

let test_thermal_converges_cool_package () =
  let nl = chain_circuit () in
  let cfg = { Leakage_core.Thermal.default_config with r_theta = 100.0 } in
  match
    Leakage_core.Thermal.solve ~config:cfg ~device nl
      (Logic.vector_of_string "01")
  with
  | Leakage_core.Thermal.Converged op ->
    Alcotest.(check bool) "above ambient" true
      (op.Leakage_core.Thermal.temperature > 300.0);
    Alcotest.(check bool) "modest self-heating" true
      (op.Leakage_core.Thermal.temperature < 310.0);
    (* self-consistency: T = ambient + R * P at the fixed point *)
    let expect =
      300.0 +. (100.0 *. op.Leakage_core.Thermal.leakage_power)
    in
    Alcotest.(check (float 0.3)) "fixed point" expect
      op.Leakage_core.Thermal.temperature
  | Leakage_core.Thermal.Runaway _ -> Alcotest.fail "unexpected runaway"

let test_thermal_monotone_in_resistance () =
  let nl = chain_circuit () in
  let temp_at r =
    match
      Leakage_core.Thermal.solve
        ~config:{ Leakage_core.Thermal.default_config with r_theta = r }
        ~device nl (Logic.vector_of_string "01")
    with
    | Leakage_core.Thermal.Converged op -> op.Leakage_core.Thermal.temperature
    | Leakage_core.Thermal.Runaway _ -> infinity
  in
  Alcotest.(check bool) "hotter package, hotter junction" true
    (temp_at 2000.0 > temp_at 100.0)

let test_thermal_runaway_detected () =
  let nl = chain_circuit () in
  (* absurd thermal resistance plus external power forces the exponential
     feedback past the ceiling *)
  let cfg =
    { Leakage_core.Thermal.default_config with
      r_theta = 2.0e7; other_power = 5.0e-6 }
  in
  match
    Leakage_core.Thermal.solve ~config:cfg ~device nl
      (Logic.vector_of_string "01")
  with
  | Leakage_core.Thermal.Runaway { last_temp; _ } ->
    Alcotest.(check bool) "past ceiling" true (last_temp > 400.0)
  | Leakage_core.Thermal.Converged op ->
    Alcotest.failf "expected runaway, converged at %.1f K"
      op.Leakage_core.Thermal.temperature

let test_thermal_profile_shape () =
  let nl = chain_circuit () in
  let points =
    Leakage_core.Thermal.temperature_profile ~device
      ~r_theta_values:[| 50.0; 500.0 |] nl (Logic.vector_of_string "01")
  in
  Alcotest.(check int) "two points" 2 (Array.length points)

(* ------------------------------------------------------------- Dual Vth *)

let chain_with_branch () =
  (* long inverter chain (critical) plus a one-level side gate (slack) *)
  let b = Netlist.Builder.create "dv" in
  let a = Netlist.Builder.input ~name:"a" b in
  let c = Netlist.Builder.input ~name:"c" b in
  let rec chain net n =
    if n = 0 then net else chain (Netlist.Builder.gate b Gate.Inv [| net |]) (n - 1)
  in
  let deep = chain a 6 in
  let shallow = Netlist.Builder.gate b (Gate.Nand 2) [| c; a |] in
  Netlist.Builder.mark_output b deep;
  Netlist.Builder.mark_output b shallow;
  Netlist.Builder.finish b

let test_dual_vth_slack_assignment () =
  let nl = chain_with_branch () in
  let assignment = Leakage_incremental.Dual_vth.slack_assignment ~critical_margin:0 nl in
  (* the six chain inverters lie on the longest path: low Vth *)
  Array.iteri
    (fun g high ->
      match Netlist.gate_kind nl g with
      | Gate.Inv -> Alcotest.(check bool) "chain stays low-Vth" false high
      | Gate.Nand _ -> Alcotest.(check bool) "side branch goes high-Vth" true high
      | _ -> ())
    assignment

let test_dual_vth_reduces_leakage () =
  let nl = chain_with_branch () in
  let high_device = Leakage_incremental.Dual_vth.high_vth_device device in
  let high_lib =
    Library.create ~grid:coarse_grid ~device:high_device ~temp
      ~vdd:device.Params.vdd ()
  in
  let assignment = Leakage_incremental.Dual_vth.slack_assignment ~critical_margin:0 nl in
  let e =
    Leakage_incremental.Dual_vth.evaluate ~low_lib:lib ~high_lib assignment nl
      (Logic.vector_of_string "01")
  in
  Alcotest.(check bool) "some gates high" true (e.Leakage_incremental.Dual_vth.n_high > 0);
  Alcotest.(check bool) "leakage reduced" true
    (e.Leakage_incremental.Dual_vth.reduction_percent > 0.0);
  (* all-low assignment must reproduce the baseline exactly *)
  let none = Array.make (Netlist.gate_count nl) false in
  let e0 =
    Leakage_incremental.Dual_vth.evaluate ~low_lib:lib ~high_lib none nl
      (Logic.vector_of_string "01")
  in
  Alcotest.(check (float 1e-9)) "all-low is baseline" 0.0
    e0.Leakage_incremental.Dual_vth.reduction_percent

let test_dual_vth_high_device () =
  let d = Leakage_incremental.Dual_vth.high_vth_device ~shift:0.1 device in
  Alcotest.(check (float 1e-12)) "threshold raised"
    (device.Params.nmos.Params.vth0 +. 0.1)
    d.Params.nmos.Params.vth0

let test_dual_vth_guards () =
  let nl = chain_with_branch () in
  Alcotest.check_raises "assignment size"
    (Invalid_argument "Dual_vth.evaluate: assignment size mismatch") (fun () ->
      ignore
        (Leakage_incremental.Dual_vth.evaluate ~low_lib:lib ~high_lib:lib [| true |]
           nl (Logic.vector_of_string "01")))

(* -------------------------------------------------------- Probabilistic *)

let test_probabilistic_propagate_inverter () =
  let b = Netlist.Builder.create "p" in
  let a = Netlist.Builder.input b in
  let o = Netlist.Builder.gate b Gate.Inv [| a |] in
  Netlist.Builder.mark_output b o;
  let nl = Netlist.Builder.finish b in
  let prob = Leakage_core.Probabilistic.propagate ~input_probability:[| 0.3 |] nl in
  Alcotest.(check (float 1e-12)) "inverter complements" 0.7 prob.(o)

let test_probabilistic_propagate_nand () =
  let b = Netlist.Builder.create "p2" in
  let x = Netlist.Builder.input b in
  let y = Netlist.Builder.input b in
  let o = Netlist.Builder.gate b (Gate.Nand 2) [| x; y |] in
  Netlist.Builder.mark_output b o;
  let nl = Netlist.Builder.finish b in
  let prob =
    Leakage_core.Probabilistic.propagate ~input_probability:[| 0.4; 0.5 |] nl
  in
  Alcotest.(check (float 1e-12)) "1 - p q" 0.8 prob.(o)

let test_probabilistic_distribution_sums_to_one () =
  List.iter
    (fun kind ->
      let arity = Gate.arity kind in
      let probs = Array.init arity (fun i -> 0.2 +. (0.15 *. float_of_int i)) in
      let total =
        List.fold_left (fun acc (_, p) -> acc +. p) 0.0
          (Leakage_core.Probabilistic.gate_state_distribution kind probs)
      in
      Alcotest.(check (float 1e-12)) (Gate.name kind ^ " sums to 1") 1.0 total)
    Gate.all_kinds

let test_probabilistic_guard () =
  let nl = chain_circuit () in
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "bad probability %g" p)
        (Invalid_argument "Probabilistic.propagate: probability outside [0,1]")
        (fun () ->
          ignore
            (Leakage_core.Probabilistic.propagate
               ~input_probability:[| p; 0.0 |] nl)))
    [ 1.5; -0.1; Float.nan ]

let test_probabilistic_matches_empirical_average () =
  (* tree circuit (no reconvergence): the closed form must match a large
     empirical vector average closely *)
  let nl = Leakage_benchmarks.Trees.parity ~width:8 () in
  let expectation = Leakage_core.Probabilistic.expected_leakage lib nl in
  let rng = Rng.create 21 in
  let n = 300 in
  let empirical =
    List.fold_left
      (fun acc pattern ->
        Report.add acc (Estimator.estimate lib nl pattern).Estimator.totals)
      Report.zero
      (Simulate.random_patterns rng nl n)
  in
  let empirical = Report.scale (1.0 /. float_of_int n) empirical in
  let e = Report.total expectation.Leakage_core.Probabilistic.totals in
  let m = Report.total empirical in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.3e vs empirical %.3e within 3%%" e m)
    true
    (abs_float (e -. m) /. m < 0.03)

(* ------------------------------------------------------------ Reporting *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let count_lines s =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s

let test_reporting_per_gate_csv () =
  let nl = chain_circuit () in
  let r = Estimator.estimate lib nl (Logic.vector_of_string "01") in
  let csv = Reporting.per_gate_csv nl r in
  Alcotest.(check int) "header + one row per gate"
    (Netlist.gate_count nl + 1) (count_lines csv);
  Alcotest.(check bool) "header fields" true
    (contains csv "gate_id,cell,output_net,vector");
  Alcotest.(check bool) "mentions NAND2" true (contains csv "NAND2")

let test_reporting_pp_per_gate_ranks () =
  let nl = chain_circuit () in
  let r = Estimator.estimate lib nl (Logic.vector_of_string "01") in
  let text = Format.asprintf "%a" (fun ppf -> Reporting.pp_per_gate ppf nl) r in
  Alcotest.(check bool) "has header" true (contains text "total[nA]");
  (* ranked: the first data line carries the largest total *)
  let totals =
    Array.map
      (fun (ge : Estimator.gate_estimate) -> Report.total ge.Estimator.with_loading)
      r.Estimator.per_gate
  in
  let largest = Array.fold_left Float.max 0.0 totals in
  let first_data_line = List.nth (String.split_on_char '\n' text) 1 in
  Alcotest.(check bool) "heaviest first" true
    (contains first_data_line (Printf.sprintf "%.1f" (largest *. 1e9)))

(* ------------------------------------------------------- Vector control *)

let test_vector_exhaustive_finds_minimum () =
  let nl = chain_circuit () in
  let r = Vector_control.exhaustive lib nl in
  (* brute force against the same objective *)
  let best = ref infinity in
  List.iter
    (fun v ->
      let t = Report.total (Estimator.estimate lib nl v).Estimator.totals in
      if t < !best then best := t)
    (Logic.all_vectors 2);
  Alcotest.(check (float 1e-18)) "matches brute force" !best r.Vector_control.total

let test_vector_greedy_descends () =
  let nl = chain_circuit () in
  let start = Logic.vector_of_string "11" in
  let start_total =
    Report.total (Estimator.estimate lib nl start).Estimator.totals
  in
  let r = Vector_control.greedy_descent lib nl ~start in
  Alcotest.(check bool) "no worse than start" true
    (r.Vector_control.total <= start_total +. 1e-18)

let test_vector_random_search_bounded () =
  let nl = chain_circuit () in
  let rng = Rng.create 3 in
  let r = Vector_control.random_search ~rng ~samples:8 lib nl in
  let exact = Vector_control.exhaustive lib nl in
  Alcotest.(check bool) "random >= exhaustive optimum" true
    (r.Vector_control.total >= exact.Vector_control.total -. 1e-18)

let test_vector_compare_objectives () =
  let nl = chain_circuit () in
  let c = Vector_control.compare_objectives lib nl in
  Alcotest.(check bool) "loading optimum not above no-loading vector's true cost"
    true
    (c.Vector_control.with_loading.Vector_control.total
     <= c.Vector_control.without_under_loading +. 1e-18);
  Alcotest.(check bool) "changed flag consistent" true
    (c.Vector_control.changed
     = (c.Vector_control.with_loading.Vector_control.vector
        <> c.Vector_control.without_loading.Vector_control.vector))

let test_vector_exhaustive_guard () =
  let b = Netlist.Builder.create "wide" in
  let pins = Array.init 21 (fun _ -> Netlist.Builder.input b) in
  let o = Netlist.Builder.gate b (Gate.And 2) [| pins.(0); pins.(1) |] in
  Netlist.Builder.mark_output b o;
  let nl = Netlist.Builder.finish b in
  Alcotest.check_raises "too wide"
    (Invalid_argument "Vector_control.exhaustive: too many inputs (> 20)")
    (fun () -> ignore (Vector_control.exhaustive lib nl))

let () =
  Alcotest.run "core"
    [
      ( "testbench",
        [
          Alcotest.test_case "shape" `Quick test_testbench_shape;
          Alcotest.test_case "vector guard" `Quick test_testbench_vector_guard;
          Alcotest.test_case "drivers apply vector" `Quick test_testbench_drivers_apply_vector;
          Alcotest.test_case "solve" `Quick test_testbench_solve_components;
          Alcotest.test_case "injection guard" `Quick test_testbench_injection_guard;
          Alcotest.test_case "pin injection sign" `Quick test_testbench_pin_injection_sign;
          Alcotest.test_case "isolated" `Quick test_isolated_components;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "identity at origin" `Quick test_characterize_zero_injection_identity;
          Alcotest.test_case "input delta signs" `Quick test_characterize_delta_signs_input;
          Alcotest.test_case "output delta signs" `Quick test_characterize_delta_signs_output;
          Alcotest.test_case "monotone sub" `Quick test_characterize_monotone_sub_table;
          Alcotest.test_case "pin injection state" `Quick test_characterize_pin_injection_matches_state;
          Alcotest.test_case "apply guard" `Quick test_characterize_apply_guard;
          Alcotest.test_case "never negative" `Quick test_characterize_apply_never_negative;
          Alcotest.test_case "grid guards" `Quick test_characterize_grid_guards;
          Alcotest.test_case "axis midpoints" `Quick
            test_characterize_axis_midpoints;
          prop_apply_matches_reference;
        ] );
      ( "library",
        [
          Alcotest.test_case "caches" `Quick test_library_caches;
          Alcotest.test_case "distinct vectors" `Quick test_library_distinct_vectors;
          Alcotest.test_case "accessors" `Quick test_library_accessors;
          Alcotest.test_case "strength range" `Quick test_library_strength_range;
          Alcotest.test_case "strength guards" `Quick test_library_strength_guards;
          Alcotest.test_case "vector arity guard" `Quick
            test_library_vector_arity_guard;
          Alcotest.test_case "tiny strength bucket" `Quick
            test_library_tiny_strength_shares_bucket;
          Alcotest.test_case "every lookup counted" `Quick
            test_library_counts_every_lookup;
          prop_kernel_reads_library_entries;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "totals are sums" `Quick test_estimator_totals_are_sums;
          Alcotest.test_case "baseline" `Quick test_estimator_baseline_is_isolated_sum;
          Alcotest.test_case "self excluded" `Quick test_estimator_loading_excludes_self;
          Alcotest.test_case "sibling loading" `Quick test_estimator_sibling_loading_positive;
          Alcotest.test_case "PI net, no sibling" `Quick test_estimator_pi_net_no_sibling;
          Alcotest.test_case "matches spice" `Quick test_estimator_matches_spice_on_chain;
          Alcotest.test_case "vector averaging" `Quick test_estimator_average_over_vectors;
          Alcotest.test_case "scratch not aliased" `Quick test_estimator_scratch_not_aliased;
          Alcotest.test_case "clamped lookups" `Quick test_estimator_clamped_lookups;
          Alcotest.test_case "minor words per gate-vector" `Quick test_estimator_minor_words;
          prop_estimator_loops_agree;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "superposition" `Quick test_ablation_superposition;
          Alcotest.test_case "one-level propagation" `Quick
            test_ablation_one_level;
        ] );
      ( "loading",
        [
          Alcotest.test_case "input sweep" `Quick test_loading_input_sweep_shape;
          Alcotest.test_case "output sweep" `Quick test_loading_output_sweep_negative;
          Alcotest.test_case "input 0 vs 1" `Quick test_loading_input0_stronger_than_input1;
          Alcotest.test_case "nand stacking" `Quick test_loading_nand_stacking_dependence;
          Alcotest.test_case "combined" `Quick test_loading_combined;
          Alcotest.test_case "pin guard" `Quick test_loading_pin_guard;
          Alcotest.test_case "temperature" `Quick test_loading_temperature_sweep;
        ] );
      ( "monte-carlo",
        [
          Alcotest.test_case "reproducible" `Quick test_mc_reproducible;
          Alcotest.test_case "sub shifts up" `Quick test_mc_loading_shifts_subthreshold_up;
          Alcotest.test_case "spread" `Quick test_mc_variation_spreads_leakage;
          Alcotest.test_case "sample guard" `Quick test_mc_sample_guard;
        ] );
      ( "strength",
        [
          Alcotest.test_case "scales leakage" `Quick test_strength_scales_isolated_leakage;
          Alcotest.test_case "estimator accuracy" `Quick test_strength_estimator_matches_solver;
          Alcotest.test_case "library buckets" `Quick test_strength_library_buckets;
          Alcotest.test_case "builder guard" `Quick test_strength_builder_guard;
        ] );
      ( "mtcmos",
        [
          Alcotest.test_case "standby collapse" `Quick test_mtcmos_standby_collapses_leakage;
          Alcotest.test_case "width tradeoff" `Quick test_mtcmos_width_tradeoff;
          Alcotest.test_case "ungated footer zero" `Quick test_mtcmos_footer_zero_when_ungated;
          Alcotest.test_case "guard" `Quick test_mtcmos_guard;
        ] );
      ( "thermal",
        [
          Alcotest.test_case "converges" `Quick test_thermal_converges_cool_package;
          Alcotest.test_case "monotone in R" `Quick test_thermal_monotone_in_resistance;
          Alcotest.test_case "runaway detection" `Quick test_thermal_runaway_detected;
          Alcotest.test_case "profile" `Quick test_thermal_profile_shape;
        ] );
      ( "dual-vth",
        [
          Alcotest.test_case "slack assignment" `Quick test_dual_vth_slack_assignment;
          Alcotest.test_case "reduces leakage" `Quick test_dual_vth_reduces_leakage;
          Alcotest.test_case "high device" `Quick test_dual_vth_high_device;
          Alcotest.test_case "guards" `Quick test_dual_vth_guards;
        ] );
      ( "kernel callers",
        [
          prop_probabilistic_matches_estimator;
          prop_incremental_matches_estimator;
        ] );
      ( "probabilistic",
        [
          Alcotest.test_case "inverter" `Quick test_probabilistic_propagate_inverter;
          Alcotest.test_case "nand" `Quick test_probabilistic_propagate_nand;
          Alcotest.test_case "distribution sums" `Quick test_probabilistic_distribution_sums_to_one;
          Alcotest.test_case "guard" `Quick test_probabilistic_guard;
          Alcotest.test_case "matches empirical" `Slow test_probabilistic_matches_empirical_average;
        ] );
      ( "statistical",
        [
          Alcotest.test_case "reproducible" `Quick test_statistical_reproducible;
          Alcotest.test_case "matches solver MC" `Slow test_statistical_matches_solver_mc;
          Alcotest.test_case "loading shift" `Quick test_statistical_loading_shift;
          Alcotest.test_case "nominal die scale" `Quick test_statistical_die_scale_nominal;
          Alcotest.test_case "guard" `Quick test_statistical_guard;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "per-gate csv" `Quick test_reporting_per_gate_csv;
          Alcotest.test_case "pp ranks" `Quick test_reporting_pp_per_gate_ranks;
        ] );
      ( "paper-claims",
        [
          Alcotest.test_case "min vector by flavour" `Quick test_min_vector_depends_on_flavour;
          Alcotest.test_case "multi-pass stable" `Quick test_multi_pass_estimator_close_to_single_pass;
          Alcotest.test_case "passes guard" `Quick test_estimator_passes_guard;
          Alcotest.test_case "pin response origin" `Quick test_pin_response_zero_matches_nominal;
        ] );
      ( "vector-control",
        [
          Alcotest.test_case "exhaustive minimum" `Quick test_vector_exhaustive_finds_minimum;
          Alcotest.test_case "greedy descends" `Quick test_vector_greedy_descends;
          Alcotest.test_case "random bounded" `Quick test_vector_random_search_bounded;
          Alcotest.test_case "compare objectives" `Quick test_vector_compare_objectives;
          Alcotest.test_case "exhaustive guard" `Quick test_vector_exhaustive_guard;
        ] );
    ]
