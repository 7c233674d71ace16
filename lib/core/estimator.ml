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

(* Shared flat-storage core of [estimate] / [estimate_totals]: logic
   values, per-gate characterization entries, and the loading fixed point
   over a single pin-aligned contribution array (CSR layout mirroring the
   netlist's pin storage — no per-gate float array on the hot path).

   Iteration is by ascending gate id and ascending pin everywhere, so
   [estimate], [estimate_totals] and [estimate_fold] perform every float sum
   in the same order and their totals stay bit-identical. *)

type core = {
  c_entries : Characterize.entry array; (* per gate id *)
  c_contribution : float array;         (* flat, pin-aligned (CSR) *)
  c_pin_base : int array;               (* gate id -> offset into c_contribution *)
  c_net_injection : float array;        (* per net *)
  c_is_pi_net : bool array;             (* per net *)
}

let run_core ~passes ~library_of_gate ~assignment lib netlist =
  if passes < 1 then invalid_arg "Estimator.estimate: passes must be >= 1";
  if Tm.enabled () then begin
    Tm.incr m_estimates;
    Tm.add m_gate_lookups (Netlist.gate_count netlist);
    (* passes beyond the first are the loading fixed-point sweep *)
    Tm.add m_pass_steps (passes - 1)
  end;
  let n_gates = Netlist.gate_count netlist in
  let nets = Netlist.net_count netlist in
  let arity = Netlist.gate_arity netlist in
  let pin = Netlist.gate_pin netlist in
  let vector_of g =
    Array.init (arity g) (fun p -> assignment.(pin g p))
  in
  let lib_for g =
    match library_of_gate with Some f -> f g | None -> lib
  in
  (* Resolve every gate's characterization entry once; the same array serves
     the injection pass and the lookup pass. *)
  let entries =
    Array.init n_gates (fun g ->
        Library.entry
          ~strength:(Netlist.gate_strength netlist g)
          (lib_for g)
          (Netlist.gate_kind netlist g)
          (vector_of g))
  in
  let pin_base = Array.make (n_gates + 1) 0 in
  for g = 0 to n_gates - 1 do
    pin_base.(g + 1) <- pin_base.(g) + arity g
  done;
  (* Loading current each net receives: the sum of the per-pin injections of
     every fanout cell. Pass 1 uses the nominal pin currents; further passes
     re-evaluate each pin's current under the loading seen on its net in the
     previous pass (one extra level of propagation per pass). *)
  let contribution = Array.make pin_base.(n_gates) 0.0 in
  for g = 0 to n_gates - 1 do
    let inj = entries.(g).Characterize.pin_injection in
    Array.blit inj 0 contribution pin_base.(g) (Array.length inj)
  done;
  let net_injection = Array.make nets 0.0 in
  let accumulate () =
    Array.fill net_injection 0 nets 0.0;
    for g = 0 to n_gates - 1 do
      let base = pin_base.(g) in
      for p = 0 to arity g - 1 do
        let net = pin g p in
        net_injection.(net) <- net_injection.(net) +. contribution.(base + p)
      done
    done
  in
  accumulate ();
  for _ = 2 to passes do
    for g = 0 to n_gates - 1 do
      let e = entries.(g) in
      let base = pin_base.(g) in
      for p = 0 to arity g - 1 do
        (* loading external to this cell on this net *)
        let external_load =
          net_injection.(pin g p) -. contribution.(base + p)
        in
        contribution.(base + p) <-
          Leakage_numeric.Interp.eval1d
            e.Characterize.pin_response.(p) external_load
      done
    done;
    accumulate ()
  done;
  let is_pi_net =
    let flags = Array.make nets true in
    for g = 0 to n_gates - 1 do
      flags.(Netlist.gate_out netlist g) <- false
    done;
    flags
  in
  {
    c_entries = entries;
    c_contribution = contribution;
    c_pin_base = pin_base;
    c_net_injection = net_injection;
    c_is_pi_net = is_pi_net;
  }

(* I_L-IN of eq. (3): gate leakage of the *other* gates on the input net —
   subtract this cell's own pin contribution, which the characterization
   testbench already accounts for. Primary-input nets are ideal sources in
   the real circuit, so there sibling loading is irrelevant; instead cancel
   the characterization testbench's finite-driver self-droop by loading the
   pin with the negation of the cell's own pin current. *)
let loading_in_of c netlist g =
  let base = c.c_pin_base.(g) in
  Array.init
    (Netlist.gate_arity netlist g)
    (fun p ->
      let net = Netlist.gate_pin netlist g p in
      let own = c.c_contribution.(base + p) in
      if c.c_is_pi_net.(net) then -.own else c.c_net_injection.(net) -. own)

let estimate ?(passes = 1) ?library_of_gate ?scratch lib netlist pattern =
  let scratch_used = scratch <> None in
  let assignment =
    match scratch with
    | None -> Simulate.run netlist pattern
    | Some buf ->
      Simulate.run_into netlist pattern buf;
      buf
  in
  let c = run_core ~passes ~library_of_gate ~assignment lib netlist in
  let per_gate =
    Array.init (Netlist.gate_count netlist) (fun g ->
        let e = c.c_entries.(g) in
        let loading_in = loading_in_of c netlist g in
        let loading_out = c.c_net_injection.(Netlist.gate_out netlist g) in
        {
          gate = g;
          vector =
            Array.init (Netlist.gate_arity netlist g) (fun p ->
                assignment.(Netlist.gate_pin netlist g p));
          loading_in;
          loading_out;
          with_loading = Characterize.apply e ~loading_in ~loading_out;
          no_loading = e.Characterize.nominal_isolated;
        })
  in
  let totals =
    Array.fold_left
      (fun acc ge -> Report.add acc ge.with_loading)
      Report.zero per_gate
  in
  let baseline_totals =
    Array.fold_left
      (fun acc ge -> Report.add acc ge.no_loading)
      Report.zero per_gate
  in
  (* A caller-owned scratch buffer will be overwritten by the next
     [run_into]; hand back a snapshot so previously returned results stay
     valid. Freshly allocated assignments are owned by the result already. *)
  let assignment = if scratch_used then Array.copy assignment else assignment in
  {
    per_gate;
    totals;
    baseline_totals;
    assignment;
    net_injection = c.c_net_injection;
  }

let estimate_totals ?(passes = 1) ?library_of_gate ?scratch lib netlist pattern
    =
  let assignment =
    match scratch with
    | None -> Simulate.run netlist pattern
    | Some buf ->
      Simulate.run_into netlist pattern buf;
      buf
  in
  let c = run_core ~passes ~library_of_gate ~assignment lib netlist in
  let totals = ref Report.zero and baseline = ref Report.zero in
  for g = 0 to Netlist.gate_count netlist - 1 do
    let e = c.c_entries.(g) in
    let loading_in = loading_in_of c netlist g in
    let loading_out = c.c_net_injection.(Netlist.gate_out netlist g) in
    totals := Report.add !totals (Characterize.apply e ~loading_in ~loading_out);
    baseline := Report.add !baseline e.Characterize.nominal_isolated
  done;
  (!totals, !baseline)

let estimate_fold ?(passes = 1) ?library_of_gate ?scratch ~init ~f lib netlist
    pattern =
  let assignment =
    match scratch with
    | None -> Simulate.run netlist pattern
    | Some buf ->
      Simulate.run_into netlist pattern buf;
      buf
  in
  let c = run_core ~passes ~library_of_gate ~assignment lib netlist in
  let totals = ref Report.zero and baseline = ref Report.zero in
  let acc = ref init in
  for g = 0 to Netlist.gate_count netlist - 1 do
    let e = c.c_entries.(g) in
    let loading_in = loading_in_of c netlist g in
    let loading_out = c.c_net_injection.(Netlist.gate_out netlist g) in
    let loaded = Characterize.apply e ~loading_in ~loading_out in
    totals := Report.add !totals loaded;
    baseline := Report.add !baseline e.Characterize.nominal_isolated;
    acc := f !acc g e ~loaded ~isolated:e.Characterize.nominal_isolated
  done;
  (!acc, !totals, !baseline)

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
