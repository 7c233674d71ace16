module Ba = Bigarray.Array1
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
let m_clamped = Tm.counter "estimator.clamped_lookups"

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

type wiring = { w_raw : Netlist.Repr.raw; w_driver : Netlist.Repr.int_arr }

let wiring netlist =
  { w_raw = Netlist.Repr.to_raw netlist; w_driver = Netlist.Repr.drivers netlist }

(* Eq. (3) and eq. (5) for one gate — the only place the loading rule is
   written. I_L-IN of an input pin is the gate current of the *other* cells
   on its net: the net's injection minus this cell's own pin current, which
   the characterization testbench already accounts for. A primary-input net
   (no driving gate) is an ideal source in the real circuit, so sibling
   loading is irrelevant there; instead the pin is loaded with minus the
   cell's own current, cancelling the testbench's finite-driver self-droop.
   I_L-OUT is the whole injection on the output net. *)
let gate_leakage w g entry ~net_injection ~(own : float array)
    ~(loading : float array) ~out =
  let r = w.w_raw in
  let lo = Ba.get r.Netlist.Repr.r_pin_off g in
  let arity = Array.length loading - 1 in
  if Ba.get r.Netlist.Repr.r_pin_off (g + 1) - lo <> arity then
    invalid_arg "Estimator.gate_leakage: loading needs one current per port";
  for p = 0 to arity - 1 do
    let net = Ba.get r.Netlist.Repr.r_pins (lo + p) in
    loading.(p) <-
      (if Ba.get w.w_driver net < 0 then -.own.(p)
       else net_injection.(net) -. own.(p))
  done;
  loading.(arity) <- net_injection.(Ba.get r.Netlist.Repr.r_out_net g);
  Characterize.apply entry ~loading ~out

(* Max cell arity: the per-arity port buffers of a scratch. *)
let max_arity =
  List.fold_left
    (fun m k -> Stdlib.max m (Leakage_circuit.Gate.arity k))
    0 Leakage_circuit.Gate.all_kinds

type scratch = {
  s_values : Simulate.assignment;        (* per net *)
  s_injection : float array;             (* per net *)
  mutable s_entries : Characterize.entry array;
      (* per gate; empty until the first estimate fills it *)
  s_loading : float array array;         (* per arity: arity + 1 ports *)
  s_out : float array;                   (* one gate's components *)
  s_sums : float array;                  (* loaded, then baseline totals *)
}

let scratch netlist =
  let nets = Netlist.net_count netlist in
  {
    s_values = Array.make nets Logic.Zero;
    s_injection = Array.make nets 0.0;
    s_entries = [||];
    s_loading = Array.init (max_arity + 1) (fun a -> Array.make (a + 1) 0.0);
    s_out = Array.make 3 0.0;
    s_sums = Array.make 6 0.0;
  }

let components (a : float array) i =
  { Report.isub = a.(i); igate = a.(i + 1); ibtbt = a.(i + 2) }

(* The one estimator loop, run once per vector; every entry point is this
   kernel plus what its [on_gate] keeps of each gate. Simulation, then
   entries and injections in gate order (each net's sum in gate order,
   then pin order), then one [gate_leakage] per gate in ascending id order
   with the totals summed in that order in unboxed locals and left in
   [s.s_sums]. When [on_gate g e] runs, [s.s_out] holds gate [g]'s
   loading-aware components and [s.s_loading.(arity)] its port loadings. *)
let kernel ~passes ~library_of_gate s lib netlist pattern ~on_gate =
  if passes < 1 then invalid_arg "Estimator.estimate: passes must be >= 1";
  let n_gates = Netlist.gate_count netlist in
  let nets = Netlist.net_count netlist in
  if Array.length s.s_injection <> nets then
    invalid_arg "Estimator: scratch built for another netlist";
  if Tm.enabled () then begin
    Tm.incr m_estimates;
    Tm.add m_gate_lookups n_gates;
    (* passes beyond the first are the loading fixed-point sweep *)
    Tm.add m_pass_steps (passes - 1)
  end;
  let values = s.s_values and inj = s.s_injection in
  Simulate.run_into netlist pattern values;
  let w = wiring netlist in
  let r = w.w_raw in
  let pin_off = r.Netlist.Repr.r_pin_off and pins = r.Netlist.Repr.r_pins in
  Array.fill inj 0 nets 0.0;
  (* One [Domain.DLS] fetch per library run, not per gate. *)
  let cache_lib = ref lib and cache = ref (Library.cache lib) in
  for g = 0 to n_gates - 1 do
    let lo = Ba.get pin_off g and hi = Ba.get pin_off (g + 1) in
    let bits = ref 0 in
    for j = lo to hi - 1 do
      bits :=
        (!bits lsl 1)
        lor (match values.(Ba.get pins j) with Logic.Zero -> 0 | Logic.One -> 1)
    done;
    let l = match library_of_gate with None -> lib | Some f -> f g in
    if l != !cache_lib then begin
      cache_lib := l;
      cache := Library.cache l
    end;
    let e = Library.gate_entry !cache r g ~bits:!bits in
    if g = 0 && Array.length s.s_entries <> n_gates then
      s.s_entries <- Array.make n_gates e;
    s.s_entries.(g) <- e;
    (* Pass 1 loads each net with the nominal pin currents. *)
    let own = e.Characterize.pin_injection in
    for j = lo to hi - 1 do
      let net = Ba.get pins j in
      inj.(net) <- inj.(net) +. own.(j - lo)
    done
  done;
  let entries = s.s_entries in
  (* Further passes re-evaluate each pin's current under the loading seen
     on its net in the previous pass (one extra level of propagation per
     pass); the single-pass default never builds these arrays. *)
  let owns =
    if passes = 1 then [||]
    else begin
      let owns = Array.init n_gates (fun g -> entries.(g).Characterize.pin_injection) in
      for _ = 2 to passes do
        for g = 0 to n_gates - 1 do
          let e = entries.(g) and lo = Ba.get pin_off g in
          owns.(g) <-
            Array.mapi
              (fun p o ->
                (* loading external to this cell on this net *)
                Leakage_numeric.Interp.eval1d e.Characterize.pin_response.(p)
                  (inj.(Ba.get pins (lo + p)) -. o))
              owns.(g)
        done;
        Array.fill inj 0 nets 0.0;
        for g = 0 to n_gates - 1 do
          let o = owns.(g) and lo = Ba.get pin_off g in
          for j = lo to Ba.get pin_off (g + 1) - 1 do
            let net = Ba.get pins j in
            inj.(net) <- inj.(net) +. o.(j - lo)
          done
        done
      done;
      owns
    end
  in
  let out = s.s_out in
  let l_sub = ref 0.0 and l_gate = ref 0.0 and l_btbt = ref 0.0 in
  let b_sub = ref 0.0 and b_gate = ref 0.0 and b_btbt = ref 0.0 in
  let clamped = ref 0 in
  for g = 0 to n_gates - 1 do
    let e = entries.(g) in
    let own = if passes = 1 then e.Characterize.pin_injection else owns.(g) in
    let loading = s.s_loading.(Array.length own) in
    clamped :=
      !clamped + gate_leakage w g e ~net_injection:inj ~own ~loading ~out;
    l_sub := !l_sub +. out.(0);
    l_gate := !l_gate +. out.(1);
    l_btbt := !l_btbt +. out.(2);
    let iso = e.Characterize.nominal_isolated in
    b_sub := !b_sub +. iso.Report.isub;
    b_gate := !b_gate +. iso.Report.igate;
    b_btbt := !b_btbt +. iso.Report.ibtbt;
    on_gate g e
  done;
  let sums = s.s_sums in
  sums.(0) <- !l_sub;
  sums.(1) <- !l_gate;
  sums.(2) <- !l_btbt;
  sums.(3) <- !b_sub;
  sums.(4) <- !b_gate;
  sums.(5) <- !b_btbt;
  if Tm.enabled () then Tm.add m_clamped !clamped

let no_gate _ _ = ()

let scratch_for netlist = function Some s -> s | None -> scratch netlist

let estimate ?(passes = 1) ?library_of_gate ?scratch:given lib netlist pattern =
  let s = scratch_for netlist given in
  let rows = ref [] in
  kernel ~passes ~library_of_gate s lib netlist pattern ~on_gate:(fun g e ->
      let arity = Array.length e.Characterize.pin_injection in
      let loading = s.s_loading.(arity) in
      rows :=
        {
          gate = g;
          vector =
            Array.init arity (fun p ->
                s.s_values.(Netlist.gate_pin netlist g p));
          loading_in = Array.sub loading 0 arity;
          loading_out = loading.(arity);
          with_loading = components s.s_out 0;
          no_loading = e.Characterize.nominal_isolated;
        }
        :: !rows);
  (* A caller-owned scratch is overwritten by its next estimate; hand back
     snapshots so previously returned results stay valid. A scratch made
     here is owned by the result already. *)
  let own a = if Option.is_none given then a else Array.copy a in
  {
    per_gate = Array.of_list (List.rev !rows);
    totals = components s.s_sums 0;
    baseline_totals = components s.s_sums 3;
    assignment = own s.s_values;
    net_injection = own s.s_injection;
  }

let estimate_totals ?(passes = 1) ?library_of_gate ?scratch:given lib netlist
    pattern =
  let s = scratch_for netlist given in
  kernel ~passes ~library_of_gate s lib netlist pattern ~on_gate:no_gate;
  (components s.s_sums 0, components s.s_sums 3)

let estimate_fold ?(passes = 1) ?library_of_gate ?scratch:given ~init ~f lib
    netlist pattern =
  let s = scratch_for netlist given in
  let acc = ref init in
  kernel ~passes ~library_of_gate s lib netlist pattern ~on_gate:(fun g e ->
      acc :=
        f !acc g e ~loaded:(components s.s_out 0)
          ~isolated:e.Characterize.nominal_isolated);
  (!acc, components s.s_sums 0, components s.s_sums 3)

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
        (* One scratch per chunk: only totals survive, so the chunk's
           estimates share every per-vector array. *)
        let scratch = scratch netlist in
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
