module Interp = Leakage_numeric.Interp
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Report = Leakage_spice.Leakage_report
module Tm = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace

type table = {
  d_isub : Interp.grid1d;
  d_igate : Interp.grid1d;
  d_ibtbt : Interp.grid1d;
}

(* The corner an entry was characterized at, and its threshold table once
   a first read built it: [unbuilt] until then. *)
type vth_slot = {
  device : Leakage_device.Params.t;
  temp : float;
  vdd : float option;
  table : table Atomic.t;
}

type entry = {
  kind : Gate.kind;
  strength : float;
  vector : Logic.vector;
  nominal_isolated : Report.components;
  nominal_driven : Report.components;
  pin_injection : float array;
  pin_response : Interp.grid1d array;
  currents : float array;
  deltas : float array;
  vth : vth_slot;
}

type port = In of int | Out

type grid_spec = {
  max_current : float;
  points : int;
}

let default_grid = { max_current = 3.0e-6; points = 7 }

(* What a slot holds until its table is built; compared by [==] only. *)
let unbuilt =
  let g = Interp.grid1d ~xs:[| 0.0; 1.0 |] ~ys:[| 0.0; 0.0 |] in
  { d_isub = g; d_igate = g; d_ibtbt = g }

let vacant =
  {
    kind = Gate.Inv;
    strength = 0.0;
    vector = [||];
    nominal_isolated = Report.zero;
    nominal_driven = Report.zero;
    pin_injection = [||];
    pin_response = [||];
    currents = [||];
    deltas = [||];
    vth =
      { device = Leakage_device.Params.d25; temp = 0.0; vdd = None;
        table = Atomic.make unbuilt };
  }

let characterize ?(grid = default_grid) ?(strength = 1.0) ~device ~temp ?vdd
    kind vector =
  if grid.points < 2 then invalid_arg "Characterize: grid needs >= 2 points";
  if grid.max_current <= 0.0 then
    invalid_arg "Characterize: max_current must be positive";
  let tb = Testbench.make ~strength kind vector in
  (* One compiled bench serves every grid point; its zero-current and
     zero-shift nodes are the nominal solve itself. *)
  let bench = Testbench.compile ~device ~temp ?vdd tb in
  let nominal = Testbench.solve bench in
  let nominal_driven = nominal.Testbench.leakage in
  let nominal_isolated =
    Testbench.isolated_components ~strength ~device ~temp ?vdd kind vector
  in
  let arity = Gate.arity kind in
  let xs =
    Interp.linspace (-.grid.max_current) grid.max_current grid.points
  in
  let sweep net =
    Array.map (fun amps -> Testbench.solve ~injections:[ (net, amps) ] bench) xs
  in
  (* For input-pin sweeps also record the cell's own pin current at each
     grid point: that is the pin's loading contribution as seen by its
     neighbours, needed by the multi-pass estimator. *)
  let pin_sweeps = Array.map sweep tb.Testbench.pin_nets in
  let pin_response =
    Array.mapi
      (fun pin samples ->
        Interp.grid1d ~xs
          ~ys:(Array.map (fun d -> d.Testbench.pin_injection.(pin)) samples))
      pin_sweeps
  in
  (* Every port's sweep, relative to the driven nominal, in the flat
     port-major, node-major, component-minor layout [apply] reads. *)
  let port_samples =
    Array.map
      (Array.map (fun d -> d.Testbench.leakage))
      (Array.append pin_sweeps [| sweep tb.Testbench.out_net |])
  in
  let n = grid.points in
  let deltas = Array.make (3 * n * (arity + 1)) 0.0 in
  Array.iteri
    (fun port samples ->
      Array.iteri
        (fun j (c : Report.components) ->
          let k = 3 * ((port * n) + j) in
          deltas.(k) <- c.Report.isub -. nominal_driven.Report.isub;
          deltas.(k + 1) <- c.Report.igate -. nominal_driven.Report.igate;
          deltas.(k + 2) <- c.Report.ibtbt -. nominal_driven.Report.ibtbt)
        samples)
    port_samples;
  { kind; strength; vector; nominal_isolated; nominal_driven;
    pin_injection = nominal.Testbench.pin_injection; pin_response;
    currents = xs; deltas;
    vth = { device; temp; vdd; table = Atomic.make unbuilt } }

let m_vth_tables = Tm.counter "library.vth_tables"

(* Threshold response of the driven nominal, tabulated: only the cell
   under test is shifted (its drivers keep nominal thresholds), matching
   how the statistical estimator perturbs gates one by one. Stored as
   per-component log factors so interpolation happens in the exponent,
   where the response is closest to linear. The zero shift is the entry's
   own [nominal_driven]: a solve there would repeat the nominal solve's
   inputs bit for bit. A run on a compiled bench depends on nothing an
   earlier run left, so a fresh bench gives the bits the characterization
   bench would have. *)
let build_vth e =
  let c = e.vth in
  let table =
    Trace.with_span ~cat:"library" "vth_table"
      ~args:[ ("cell", Gate.name e.kind) ]
    @@ fun () ->
    let bench =
      Testbench.compile ~device:c.device ~temp:c.temp ?vdd:c.vdd
        (Testbench.make ~strength:e.strength e.kind e.vector)
    in
    let dvs = Interp.linspace (-0.15) 0.15 9 in
    let samples =
      Array.map
        (fun dv ->
          if dv = 0.0 then e.nominal_driven
          else (Testbench.solve ~dut_vth_shift:dv bench).Testbench.leakage)
        dvs
    in
    let log_ratio pick =
      let base = pick e.nominal_driven in
      Array.map
        (fun c ->
          let v = pick c in
          if v <= 0.0 || base <= 0.0 then 0.0 else log (v /. base))
        samples
    in
    {
      d_isub = Interp.grid1d ~xs:dvs ~ys:(log_ratio (fun c -> c.Report.isub));
      d_igate = Interp.grid1d ~xs:dvs ~ys:(log_ratio (fun c -> c.Report.igate));
      d_ibtbt = Interp.grid1d ~xs:dvs ~ys:(log_ratio (fun c -> c.Report.ibtbt));
    }
  in
  Tm.incr m_vth_tables;
  (* Racing domains build the same bits; the first to publish wins. *)
  if Atomic.compare_and_set c.table unbuilt table then table
  else Atomic.get c.table

let vth_log_factor e =
  let t = Atomic.get e.vth.table in
  if t != unbuilt then t else build_vth e

(* Slope of a tabulated log-response at dv = 0, taken from the grid nodes
   bracketing zero (the ±150 mV axis has an odd point count, so zero is
   itself a node). This is the λ (first-order log-sensitivity) the analytic
   variance propagation reports: the slope of the very table the
   statistical sampler interpolates, so the analytic model differentiates
   exactly what the MC samples. *)
let node_slope (g : Interp.grid1d) =
  let xs = g.Interp.xs and ys = g.Interp.ys in
  let n = Array.length xs in
  let i0 = ref 0 in
  for i = 1 to n - 1 do
    if Float.abs xs.(i) < Float.abs xs.(!i0) then i0 := i
  done;
  let i0 = Stdlib.max 1 (Stdlib.min (n - 2) !i0) in
  let h_lo = xs.(i0) -. xs.(i0 - 1) and h_hi = xs.(i0 + 1) -. xs.(i0) in
  (ys.(i0 + 1) -. ys.(i0 - 1)) /. (h_hi +. h_lo)

let vth_log_slope entry =
  let t = vth_log_factor entry in
  {
    Report.isub = node_slope t.d_isub;
    igate = node_slope t.d_igate;
    ibtbt = node_slope t.d_ibtbt;
  }

(* Linear interpolation on the shared current axis, as [Interp.eval1d]
   does it: the edge samples beyond either end, else the segment
   [xs.(i) <= x < xs.(i+1)] found by bisection and weighted
   [(y_i *. (1. -. t)) +. (y_{i+1} *. t)]. [apply] lands on the same
   segment by index arithmetic and keeps its sums in unboxed locals. *)
let delta entry port amps =
  let arity = Array.length entry.pin_injection in
  let port =
    match port with
    | In k when k >= 0 && k < arity -> k
    | In k -> invalid_arg (Printf.sprintf "Characterize.delta: no pin %d" k)
    | Out -> arity
  in
  if Float.is_nan amps then invalid_arg "Characterize.delta: NaN current";
  let xs = entry.currents and d = entry.deltas in
  let n = Array.length xs in
  let node j c = d.((3 * ((port * n) + j)) + c) in
  let at c =
    if amps <= xs.(0) then node 0 c
    else if amps >= xs.(n - 1) then node (n - 1) c
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if xs.(mid) <= amps then lo := mid else hi := mid
      done;
      let i = !lo in
      let t = (amps -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
      (node i c *. (1.0 -. t)) +. (node (i + 1) c *. t)
    end
  in
  { Report.isub = at 0; igate = at 1; ibtbt = at 2 }

let apply entry ~loading ~out =
  let arity = Array.length entry.pin_injection in
  if Array.length loading <> arity + 1 then
    invalid_arg "Characterize.apply: loading needs one current per port";
  let xs = entry.currents and d = entry.deltas in
  let n = Array.length xs in
  let x_first = xs.(0) and x_last = xs.(n - 1) in
  (* nodes per ampere on a uniform axis: a first guess at the segment *)
  let per_amp = float_of_int (n - 1) /. (x_last -. x_first) in
  let isub = ref entry.nominal_driven.Report.isub
  and igate = ref entry.nominal_driven.Report.igate
  and ibtbt = ref entry.nominal_driven.Report.ibtbt in
  let clamped = ref 0 in
  (* Pins in order, then the output: the superposition sum of eq. (5). *)
  for port = 0 to arity do
    let amps = loading.(port) in
    if Float.is_nan amps then invalid_arg "Characterize.apply: NaN loading";
    if amps < x_first || amps > x_last then incr clamped;
    let row = port * n in
    if amps <= x_first || amps >= x_last then begin
      let k = 3 * (if amps <= x_first then row else row + n - 1) in
      isub := !isub +. d.(k);
      igate := !igate +. d.(k + 1);
      ibtbt := !ibtbt +. d.(k + 2)
    end
    else begin
      (* x_first < amps < x_last: the guess lies in [0, n - 1]; the two
         steps then settle on xs.(i) <= amps < xs.(i + 1), the one segment
         bisection finds, on any strictly increasing axis. *)
      let guess = int_of_float ((amps -. x_first) *. per_amp) in
      let i = ref (if guess < n - 2 then guess else n - 2) in
      while xs.(!i) > amps do decr i done;
      while xs.(!i + 1) <= amps do incr i done;
      let i = !i in
      let t = (amps -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
      let s = 1.0 -. t in
      let k = 3 * (row + i) in
      isub := !isub +. ((d.(k) *. s) +. (d.(k + 3) *. t));
      igate := !igate +. ((d.(k + 1) *. s) +. (d.(k + 4) *. t));
      ibtbt := !ibtbt +. ((d.(k + 2) *. s) +. (d.(k + 5) *. t))
    end
  done;
  (* Component shifts can be negative; clamp pathological extrapolation so a
     leakage estimate never goes below zero. [Float.max 0.0 x], bit for bit
     (-0.0 clamps to 0.0, a NaN passes through), without its C calls. *)
  let clamp x = if x > 0.0 then x else if x <> x then x else 0.0 in
  out.(0) <- clamp !isub;
  out.(1) <- clamp !igate;
  out.(2) <- clamp !ibtbt;
  !clamped
