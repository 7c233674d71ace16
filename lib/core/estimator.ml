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
  s_bits : Bytes.t;
      (* per gate, 1 byte: its input bits (a kind has at most 4 pins) *)
  mutable s_base : int array;
      (* per gate, with [library_of_gate]: its library's first row in
         [s_rows] *)
  mutable s_cells_of : Netlist.t option;  (* the netlist [s_cell] indexes *)
  mutable s_cell : Bytes.t;              (* per gate, 2 bytes: its cell's index *)
  mutable s_cells : int array;           (* the netlist's distinct cells *)
  mutable s_rows : Characterize.entry array array;
      (* per estimate: each library's row of each cell, a library's rows
         at a multiple of the cell count *)
  s_loading : float array array;         (* per arity: arity + 1 ports *)
  s_out : float array;                   (* one gate's components *)
  s_sums : float array;                  (* loaded, then baseline totals *)
}

let scratch netlist =
  let nets = Netlist.net_count netlist in
  {
    s_values = Array.make nets Logic.Zero;
    s_injection = Array.make nets 0.0;
    s_bits = Bytes.create (Netlist.gate_count netlist);
    s_base = [||];
    s_cells_of = None;
    s_cell = Bytes.empty;
    s_cells = [||];
    s_rows = [||];
    s_loading = Array.init (max_arity + 1) (fun a -> Array.make (a + 1) 0.0);
    s_out = Array.make 3 0.0;
    s_sums = Array.make 6 0.0;
  }

let components (a : float array) i =
  { Report.isub = a.(i); igate = a.(i + 1); ibtbt = a.(i + 2) }

(* Each gate's cell ([Library.cell]) as an index into the netlist's
   distinct cells, in first-seen order; a run of gates of one kind and
   strength shares one lookup. Built once per scratch and netlist. *)
let index_cells s netlist (r : Netlist.Repr.raw) =
  let n = Netlist.gate_count netlist in
  let cell_of = Bytes.create (2 * n) in
  (* cell -> index, open addressing kept at most half full *)
  let keys = ref (Array.make 64 (-1)) and idx = ref (Array.make 64 0) in
  let cells = ref [] and count = ref 0 in
  let probe keys c =
    let mask = Array.length keys - 1 in
    let j = ref (((c * 0x9E3779B1) lsr 7) land mask) in
    while keys.(!j) >= 0 && keys.(!j) <> c do
      j := (!j + 1) land mask
    done;
    !j
  in
  let put c i =
    let j = probe !keys c in
    !keys.(j) <- c;
    !idx.(j) <- i
  in
  let index_of c =
    let j = probe !keys c in
    if !keys.(j) = c then !idx.(j)
    else begin
      if 2 * (!count + 1) > Array.length !keys then begin
        let old_keys = !keys and old_idx = !idx in
        keys := Array.make (2 * Array.length old_keys) (-1);
        idx := Array.make (2 * Array.length old_keys) 0;
        Array.iteri (fun j c -> if c >= 0 then put c old_idx.(j)) old_keys
      end;
      put c !count;
      cells := c :: !cells;
      incr count;
      !count - 1
    end
  in
  let code_at = r.Netlist.Repr.r_kind_code
  and strength_at = r.Netlist.Repr.r_strength in
  let last_code = ref (-1) and last_strength = ref 0.0 and last = ref 0 in
  for g = 0 to n - 1 do
    let code = Ba.get code_at g and strength = Ba.get strength_at g in
    if code <> !last_code || not (strength = !last_strength) then begin
      last := index_of (Library.cell r g);
      last_code := code;
      last_strength := strength
    end;
    Bytes.set_uint16_ne cell_of (2 * g) !last
  done;
  s.s_cells_of <- Some netlist;
  s.s_cell <- cell_of;
  s.s_cells <- Array.of_list (List.rev !cells)

(* [lib]'s row of every cell of the scratch's netlist, into [s_rows] from
   [base]. *)
let resolve_rows s lib base =
  let cells = s.s_cells in
  let k = Array.length cells in
  if Array.length s.s_rows < base + k then begin
    let rows = Array.make (Stdlib.max (base + k) (2 * Array.length s.s_rows)) [||] in
    Array.blit s.s_rows 0 rows 0 base;
    s.s_rows <- rows
  end;
  let c = Library.cache lib in
  for i = 0 to k - 1 do
    s.s_rows.(base + i) <- Library.row c cells.(i)
  done

let no_gate _ _ = ()

(* The one estimator loop, run once per vector; every entry point is this
   kernel plus what its [on_gate] keeps of each gate. Simulation, then
   entries and injections in gate order (each net's sum in gate order,
   then pin order), then one [gate_leakage] per gate in ascending id order
   with the totals summed in that order in unboxed locals and left in
   [s.s_sums]. A gate's entry is a slot of its cell's row, read by index:
   the rows are resolved once per estimate (once per library met, with
   [library_of_gate]), and a vacant slot is filled through
   [Library.gate_entry]. When [on_gate g e] runs, [s.s_out] holds gate
   [g]'s loading-aware components and [s.s_loading.(arity)] its port
   loadings. *)
let kernel ~passes ~library_of_gate s lib netlist pattern ~on_gate =
  if passes < 1 then invalid_arg "Estimator.estimate: passes must be >= 1";
  let n_gates = Netlist.gate_count netlist in
  let nets = Netlist.net_count netlist in
  if Array.length s.s_injection <> nets || Bytes.length s.s_bits <> n_gates
  then invalid_arg "Estimator: scratch built for another netlist";
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
  (match s.s_cells_of with
   | Some nl when nl == netlist -> ()
   | _ -> index_cells s netlist r);
  let pin_off = r.Netlist.Repr.r_pin_off and pins = r.Netlist.Repr.r_pins in
  let cell_of = s.s_cell and bits_of = s.s_bits in
  let k = Array.length s.s_cells in
  if library_of_gate <> None && Array.length s.s_base <> n_gates then
    s.s_base <- Array.make n_gates 0;
  Array.fill inj 0 nets 0.0;
  resolve_rows s lib 0;
  let vacant = Library.vacant in
  (* With [library_of_gate], the libraries other than [lib] met so far and
     their rows' base in [s_rows]. *)
  let met = ref [] in
  let cur_lib = ref lib and cur_base = ref 0 in
  let fills = ref 0 in
  for g = 0 to n_gates - 1 do
    let lo = Ba.get pin_off g and hi = Ba.get pin_off (g + 1) in
    let bits = ref 0 in
    for j = lo to hi - 1 do
      bits :=
        (!bits lsl 1)
        lor (match values.(Ba.get pins j) with Logic.Zero -> 0 | Logic.One -> 1)
    done;
    let bits = !bits in
    (match library_of_gate with
     | None -> ()
     | Some f ->
       let l = f g in
       if l != !cur_lib then begin
         cur_lib := l;
         cur_base :=
           if l == lib then 0
           else
             match List.assq_opt l !met with
             | Some base -> base
             | None ->
               let base = k * (List.length !met + 1) in
               resolve_rows s l base;
               met := (l, base) :: !met;
               base
       end;
       s.s_base.(g) <- !cur_base);
    Bytes.set_uint8 bits_of g bits;
    let e = s.s_rows.(!cur_base + Bytes.get_uint16_ne cell_of (2 * g)).(bits) in
    let e =
      if e != vacant then e
      else begin
        incr fills;
        Library.gate_entry (Library.cache !cur_lib) r g ~bits
      end
    in
    (* Pass 1 loads each net with the nominal pin currents. *)
    let own = e.Characterize.pin_injection in
    for j = lo to hi - 1 do
      let net = Ba.get pins j in
      inj.(net) <- inj.(net) +. own.(j - lo)
    done
  done;
  if Tm.enabled () then Library.count_hits (n_gates - !fills);
  let rows = s.s_rows and base = s.s_base in
  let mixed = library_of_gate <> None in
  (* Further passes re-evaluate each pin's current under the loading seen
     on its net in the previous pass (one extra level of propagation per
     pass); the single-pass default never builds these arrays. *)
  let owns =
    if passes = 1 then [||]
    else begin
      let entry g =
        let row = Bytes.get_uint16_ne cell_of (2 * g) in
        rows.(if mixed then base.(g) + row else row).(Bytes.get_uint8 bits_of g)
      in
      let owns = Array.init n_gates (fun g -> (entry g).Characterize.pin_injection) in
      for _ = 2 to passes do
        for g = 0 to n_gates - 1 do
          let e = entry g and lo = Ba.get pin_off g in
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
    let row = Bytes.get_uint16_ne cell_of (2 * g) in
    let e =
      rows.(if mixed then base.(g) + row else row).(Bytes.get_uint8 bits_of g)
    in
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
    if on_gate != no_gate then on_gate g e
  done;
  let sums = s.s_sums in
  sums.(0) <- !l_sub;
  sums.(1) <- !l_gate;
  sums.(2) <- !l_btbt;
  sums.(3) <- !b_sub;
  sums.(4) <- !b_gate;
  sums.(5) <- !b_btbt;
  if Tm.enabled () then Tm.add m_clamped !clamped

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
      acc := f !acc g e ~loaded:s.s_out);
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
