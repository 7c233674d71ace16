module Netlist = Leakage_circuit.Netlist
module Logic = Leakage_circuit.Logic
module Simulate = Leakage_circuit.Simulate
module Report = Leakage_spice.Leakage_report
module Pool = Leakage_parallel.Pool
module Tm = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace

let m_estimates = Tm.counter "estimator.estimates"
let m_gate_lookups = Tm.counter "estimator.gate_lookups"
let m_pass_steps = Tm.counter "estimator.loading_pass_steps"

type gate_estimate = {
  gate : int;
  vector : Logic.vector;
  loading_in : float array;
  loading_out : float;
  with_loading : Report.components;
  no_loading : Report.components;
}

type result = {
  per_gate : gate_estimate array;
  totals : Report.components;
  baseline_totals : Report.components;
  assignment : Simulate.assignment;
  net_injection : float array;
}

(* Eq. (3) and eq. (5) for one gate — the only place the loading rule is
   written. I_L-IN of an input pin is the gate current of the *other* cells
   on its net: the net's injection minus this cell's own pin current, which
   the characterization testbench already accounts for. A primary-input net
   (no driving gate) is an ideal source in the real circuit, so sibling
   loading is irrelevant there; instead the pin is loaded with minus the
   cell's own current, cancelling the testbench's finite-driver self-droop.
   I_L-OUT is the whole injection on the output net. *)
let gate_leakage netlist g entry ~net_injection ~(own : float array)
    ~(loading_in : float array) =
  for p = 0 to Array.length loading_in - 1 do
    let net = Netlist.gate_pin netlist g p in
    loading_in.(p) <-
      (if Netlist.driver_id netlist net < 0 then -.own.(p)
       else net_injection.(net) -. own.(p))
  done;
  Characterize.apply entry ~loading_in
    ~loading_out:net_injection.(Netlist.gate_out netlist g)

(* What every estimate shares: the logic values, each gate's
   characterization entry, its own pin currents after the last pass, and
   the loading current each net receives. *)
type core = {
  c_assignment : Simulate.assignment;
  c_entries : Characterize.entry array; (* per gate id *)
  c_own : float array array;            (* per gate id, per pin *)
  c_net_injection : float array;        (* per net *)
}

let run_core ~passes ~library_of_gate ~scratch lib netlist pattern =
  if passes < 1 then invalid_arg "Estimator.estimate: passes must be >= 1";
  if Tm.enabled () then begin
    Tm.incr m_estimates;
    Tm.add m_gate_lookups (Netlist.gate_count netlist);
    (* passes beyond the first are the loading fixed-point sweep *)
    Tm.add m_pass_steps (passes - 1)
  end;
  let assignment =
    match scratch with
    | None -> Simulate.run netlist pattern
    | Some buf ->
      Simulate.run_into netlist pattern buf;
      buf
  in
  let n_gates = Netlist.gate_count netlist in
  let nets = Netlist.net_count netlist in
  let arity = Netlist.gate_arity netlist in
  let pin = Netlist.gate_pin netlist in
  let lib_for g =
    match library_of_gate with Some f -> f g | None -> lib
  in
  (* Resolve every gate's characterization entry once; the same array serves
     the injection pass and the lookup pass. *)
  let entries =
    Array.init n_gates (fun g ->
        let vector = Array.make (arity g) Logic.Zero in
        for p = 0 to arity g - 1 do
          vector.(p) <- assignment.(pin g p)
        done;
        Library.entry
          ~strength:(Netlist.gate_strength netlist g)
          (lib_for g)
          (Netlist.gate_kind netlist g)
          vector)
  in
  (* Loading current each net receives: the sum of the per-pin injections of
     every fanout cell. Pass 1 uses the nominal pin currents (shared with
     the entries, never written); further passes re-evaluate each pin's
     current under the loading seen on its net in the previous pass (one
     extra level of propagation per pass). *)
  let own = Array.map (fun e -> e.Characterize.pin_injection) entries in
  let net_injection = Array.make nets 0.0 in
  let accumulate () =
    Array.fill net_injection 0 nets 0.0;
    for g = 0 to n_gates - 1 do
      let o = own.(g) in
      for p = 0 to arity g - 1 do
        let net = pin g p in
        net_injection.(net) <- net_injection.(net) +. o.(p)
      done
    done
  in
  accumulate ();
  for _ = 2 to passes do
    for g = 0 to n_gates - 1 do
      let e = entries.(g) in
      own.(g) <-
        Array.mapi
          (fun p o ->
            (* loading external to this cell on this net *)
            Leakage_numeric.Interp.eval1d e.Characterize.pin_response.(p)
              (net_injection.(pin g p) -. o))
          own.(g)
    done;
    accumulate ()
  done;
  {
    c_assignment = assignment;
    c_entries = entries;
    c_own = own;
    c_net_injection = net_injection;
  }

(* The one per-gate loop. Every gate goes through [gate_leakage] in
   ascending id order and the totals are summed in that order, so
   [estimate], [estimate_totals] and [estimate_fold] — folds over this
   loop — agree bit for bit. [f] gets the gate's fresh I_L-IN array and its
   loading-aware components; no float is passed on its own, where it would
   be boxed. *)
let fold_gates netlist c ~init ~f =
  let totals = ref Report.zero and baseline = ref Report.zero in
  let acc = ref init in
  for g = 0 to Netlist.gate_count netlist - 1 do
    let e = c.c_entries.(g) in
    let loading_in = Array.make (Netlist.gate_arity netlist g) 0.0 in
    let loaded =
      gate_leakage netlist g e ~net_injection:c.c_net_injection
        ~own:c.c_own.(g) ~loading_in
    in
    totals := Report.add !totals loaded;
    baseline := Report.add !baseline e.Characterize.nominal_isolated;
    acc := f !acc g e loading_in loaded
  done;
  (!acc, !totals, !baseline)

let estimate ?(passes = 1) ?library_of_gate ?scratch lib netlist pattern =
  let c = run_core ~passes ~library_of_gate ~scratch lib netlist pattern in
  let rows, totals, baseline_totals =
    fold_gates netlist c ~init:[] ~f:(fun rows g e loading_in loaded ->
        {
          gate = g;
          vector =
            Array.init (Netlist.gate_arity netlist g) (fun p ->
                c.c_assignment.(Netlist.gate_pin netlist g p));
          loading_in;
          loading_out = c.c_net_injection.(Netlist.gate_out netlist g);
          with_loading = loaded;
          no_loading = e.Characterize.nominal_isolated;
        }
        :: rows)
  in
  {
    per_gate = Array.of_list (List.rev rows);
    totals;
    baseline_totals;
    (* A caller-owned scratch buffer will be overwritten by the next
       [run_into]; hand back a snapshot so previously returned results stay
       valid. Freshly allocated assignments are owned by the result
       already. *)
    assignment =
      (if scratch = None then c.c_assignment else Array.copy c.c_assignment);
    net_injection = c.c_net_injection;
  }

let estimate_totals ?(passes = 1) ?library_of_gate ?scratch lib netlist pattern
    =
  let c = run_core ~passes ~library_of_gate ~scratch lib netlist pattern in
  let (), totals, baseline =
    fold_gates netlist c ~init:() ~f:(fun () _ _ _ _ -> ())
  in
  (totals, baseline)

let estimate_fold ?(passes = 1) ?library_of_gate ?scratch ~init ~f lib netlist
    pattern =
  let c = run_core ~passes ~library_of_gate ~scratch lib netlist pattern in
  fold_gates netlist c ~init ~f:(fun acc g e _ loaded ->
      f acc g e ~loaded ~isolated:e.Characterize.nominal_isolated)

(* Fixed chunk width for vector averaging. The chunk decomposition — and
   therefore the float-summation tree — depends only on the vector count,
   never on the pool size, so parallel and sequential means are
   bit-identical. *)
let avg_chunk = 16

let average_over_vectors ?pool lib netlist patterns =
  if patterns = [] then invalid_arg "Estimator.average_over_vectors: no vectors";
  let patterns = Array.of_list patterns in
  let n = Array.length patterns in
  Netlist.warm netlist;
  let partials =
    Pool.map_chunked ?pool ~chunk:avg_chunk n (fun ~lo ~hi ->
        Trace.with_span ~cat:"core" "avg_chunk"
          ~args:[ ("vectors", string_of_int (hi - lo)) ]
        @@ fun () ->
        (* One logic-simulation buffer per chunk: only totals survive, so
           the lean no-record path serves here. *)
        let scratch =
          Array.make (Netlist.net_count netlist) Leakage_circuit.Logic.Zero
        in
        let acc_l = ref Report.zero and acc_b = ref Report.zero in
        for i = lo to hi - 1 do
          let l, b = estimate_totals ~scratch lib netlist patterns.(i) in
          acc_l := Report.add !acc_l l;
          acc_b := Report.add !acc_b b
        done;
        (!acc_l, !acc_b))
  in
  let sum_loaded, sum_base =
    Array.fold_left
      (fun (acc_l, acc_b) (l, b) -> (Report.add acc_l l, Report.add acc_b b))
      (Report.zero, Report.zero) partials
  in
  let inv = 1.0 /. float_of_int n in
  (Report.scale inv sum_loaded, Report.scale inv sum_base)
