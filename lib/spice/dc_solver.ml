module Params = Leakage_device.Params
module Model = Leakage_device.Model

type options = {
  tol_voltage : float;
  max_sweeps : int;
  v_margin : float;
  max_step : float;
}

let default_options = {
  tol_voltage = 1e-9;
  max_sweeps = 200;
  v_margin = 0.3;
  max_step = 0.25;
}

type result = {
  voltages : float array;
  sweeps : int;
  converged : bool;
}

(* One compiled device per distinct (device, polarity, width) of a solve.
   [device_of_gate] may build a fresh device record per call, so devices
   compare structurally. Within one solve devices differ by per-gate
   threshold shifts, which the hash sees through the polarity's [vth0]. *)
module Device_key = Hashtbl.Make (struct
  type t = Params.t * Params.polarity * float

  let equal (d, p, w) (d', p', w') =
    p = p' && Float.equal w w' && (d == d' || d = d')

  let hash (d, p, w) = Hashtbl.hash (w, p, (Params.fet d p).Params.vth0)
end)

(* A compiled network: everything a solve reads that does not change from
   one run to the next, plus the scratch a run works in. Every
   transistor's four terminal currents live in [cur] at slots
   [4 * transistor + terminal], the numbering of [Flatten.touching]; a
   node's KCL residual is its injection plus the slots [touching] lists,
   summed in that order. Within one update every slot it reads is
   evaluated afresh, so nothing in [cur] carries from one update, or one
   run, to the next.

   A run works on [xv]: the unknowns, then the fixed nodes' distinct
   voltages, so a slot reads its voltage as [xv.(nodes.(slot))] whether
   its node is fixed or not.

   Each block relaxes from lists made once here. A block's list holds the
   transistors touching its unknowns, each once, in first-seen order
   (unknown by unknown, [touching] order within one); a block of two or
   more unknowns also has one list per unknown, its Jacobian column: the
   transistors touching that unknown, each once. An element is
   [2 * transistor + 1] when a drain, source or bulk of the transistor is
   an unknown of the block (a full evaluation), [2 * transistor] when
   only its gate is (the gate-only rule). The lists are segments of one
   flat [lists] array: segment [s] spans [seg_off.(s)] to
   [seg_off.(s + 1) - 1]; block [b]'s own list is segment
   [first_seg.(b)], and its column [j] segment [first_seg.(b) + 1 + j]. *)
type kernel = {
  flat : Flatten.t;
  devices : Model.compiled array;
  nodes : int array;      (* per slot: its voltage's index in [xv] *)
  xv : float array;       (* the run vector: unknowns, then fixed levels *)
  cur : float array;
  bias : float array;     (* vg, vd, vs, vb of the transistor in hand *)
  comps : float array;
  inj : float array;
  lists : int array;      (* per-block transistor lists, flat *)
  seg_off : int array;
  first_seg : int array;  (* per block: its list's segment *)
  saved_cur : float array;  (* currents a Jacobian column overwrote *)
  jac : float array;      (* block Newton: row-major Jacobian ... *)
  perm : int array;       (* ... its LU row order ... *)
  f0 : float array;       (* ... the block's residuals ... *)
  rhs : float array;      (* ... their negation ... *)
  dx : float array;       (* ... and the step *)
  limits : float array;   (* a run's node floor, node ceiling, step clamp *)
  moved : float array;    (* the largest move of the update in hand *)
  mutable evals : int;
  mutable gate_evals : int;
}

(* Whether the terminal at [slot] is an unknown of block [b], [member]
   holding each unknown's block. *)
let[@inline] in_block nodes member nu b slot =
  let u = nodes.(slot) in
  u < nu && member.(u) = b

(* The per-block lists of [kernel], segment by segment in order: [lists],
   [seg_off] and [first_seg] as the kernel keeps them, and the longest
   segment. The array is sized by the attached terminals, a bound on the
   transistors they list. *)
let block_lists (flat : Flatten.t) nodes =
  let nu = flat.Flatten.n_unknowns and touching = flat.Flatten.touching in
  let blocks = flat.Flatten.blocks in
  let n_segs = ref 0 and bound = ref 0 in
  Array.iter
    (fun block ->
      let n = Array.length block in
      (* an unknown is listed in the block's list and in its column's *)
      let copies = if n >= 2 then 2 else 1 in
      n_segs := !n_segs + 1 + (if n >= 2 then n else 0);
      Array.iter
        (fun i -> bound := !bound + (copies * Array.length touching.(i)))
        block)
    blocks;
  let lists = Array.make !bound 0 and seg_off = Array.make (!n_segs + 1) 0 in
  let first_seg = Array.make (Array.length blocks) 0 in
  let member = Array.make nu (-1)
  and seen = Array.make (Array.length flat.Flatten.transistors) (-1) in
  let seg = ref 0 and pos = ref 0 and widest = ref 0 in
  for b = 0 to Array.length blocks - 1 do
    let block = blocks.(b) in
    let n = Array.length block in
    first_seg.(b) <- !seg;
    for j = 0 to n - 1 do
      member.(block.(j)) <- b
    done;
    (* column -1 is the block's own list, over all its unknowns *)
    for col = -1 to (if n >= 2 then n - 1 else -1) do
      let s = !seg in
      let lo = if col < 0 then 0 else col in
      let hi = if col < 0 then n - 1 else col in
      for j = lo to hi do
        let slots = touching.(block.(j)) in
        for m = 0 to Array.length slots - 1 do
          let slot = slots.(m) in
          let tr = slot lsr 2 in
          if seen.(tr) <> s then begin
            seen.(tr) <- s;
            let o = 4 * tr in
            (* a drain, source or bulk slot is the block's own unknown *)
            let full =
              slot land 3 <> 0
              || in_block nodes member nu b (o + 1)
              || in_block nodes member nu b (o + 2)
              || in_block nodes member nu b (o + 3)
            in
            lists.(!pos) <- (2 * tr) + (if full then 1 else 0);
            incr pos
          end
        done
      done;
      widest := Stdlib.max !widest (!pos - seg_off.(s));
      seg_off.(s + 1) <- !pos;
      incr seg
    done
  done;
  (lists, seg_off, first_seg, !widest)

let kernel flat =
  let transistors = flat.Flatten.transistors in
  let n_tr = Array.length transistors in
  let nu = flat.Flatten.n_unknowns in
  let table = Device_key.create 16 in
  let devices =
    Array.map
      (fun (tr : Flatten.transistor) ->
        let key = (flat.Flatten.device_of_gate tr.owner, tr.pol, tr.w) in
        match Device_key.find_opt table key with
        | Some k -> k
        | None ->
          let d, pol, w = key in
          let k = Model.compile d pol ~w ~temp:flat.Flatten.temp in
          Device_key.add table key k;
          k)
      transistors
  in
  (* A fixed node's slot names its voltage among the few distinct ones
     (rails and input levels, told apart by their bits), stored after the
     unknowns in the run vector, so the slot table is one int per
     terminal. *)
  let levels = ref [||] in
  let level v =
    let rec find i =
      if i = Array.length !levels then begin
        levels := Array.append !levels [| v |];
        i
      end
      else if Int64.equal (Int64.bits_of_float !levels.(i))
                (Int64.bits_of_float v)
      then i
      else find (i + 1)
    in
    find 0
  in
  let slot_of node =
    match node with
    | Flatten.Unknown i -> i
    | Flatten.Ground | Flatten.Rail | Flatten.Fixed _ ->
      nu + level (Flatten.node_voltage flat [||] node)
  in
  let nodes = Array.make (4 * n_tr) 0 in
  Array.iteri
    (fun idx (tr : Flatten.transistor) ->
      let o = 4 * idx in
      nodes.(o) <- slot_of tr.g;
      nodes.(o + 1) <- slot_of tr.d;
      nodes.(o + 2) <- slot_of tr.s;
      nodes.(o + 3) <- slot_of tr.b)
    transistors;
  let xv = Array.append (Array.make nu 0.0) !levels in
  let lists, seg_off, first_seg, widest = block_lists flat nodes in
  let block =
    Array.fold_left
      (fun acc b -> Stdlib.max acc (Array.length b))
      0 flat.Flatten.blocks
  in
  let n = Stdlib.max 1 nu in
  {
    flat;
    devices;
    nodes;
    xv;
    cur = Array.make (4 * n_tr) 0.0;
    bias = Array.make 4 0.0;
    comps = Array.make 8 0.0;
    inj = Array.make n 0.0;
    lists;
    seg_off;
    first_seg;
    saved_cur = Array.make (4 * widest) 0.0;
    jac = Array.make (block * block) 0.0;
    perm = Array.make block 0;
    f0 = Array.make block 0.0;
    rhs = Array.make block 0.0;
    dx = Array.make block 0.0;
    limits = Array.make 3 0.0;
    moved = Array.make 1 0.0;
    evals = 0;
    gate_evals = 0;
  }

let flat_of k = k.flat

let set_gate_device k gate device =
  Array.iteri
    (fun idx (tr : Flatten.transistor) ->
      if tr.owner = gate then
        k.devices.(idx) <- Model.compile device tr.pol ~w:tr.w
                             ~temp:k.flat.Flatten.temp)
    k.flat.Flatten.transistors

(* A run starts from zero counts and the listed injections alone. *)
let reset k injections =
  let n = k.flat.Flatten.n_unknowns in
  Array.fill k.inj 0 (Array.length k.inj) 0.0;
  List.iter
    (fun (i, amps) ->
      if i < 0 || i >= n then
        invalid_arg "Dc_solver: injection at unknown node index";
      k.inj.(i) <- k.inj.(i) +. amps)
    injections;
  k.evals <- 0;
  k.gate_evals <- 0

(* The bias of the transistor at slots [o..o+3], read from the run
   vector. *)
let[@inline] load_bias k (x : float array) o =
  let b = k.bias and nodes = k.nodes in
  b.(0) <- x.(nodes.(o));
  b.(1) <- x.(nodes.(o + 1));
  b.(2) <- x.(nodes.(o + 2));
  b.(3) <- x.(nodes.(o + 3))

(* [x] holds the unknowns alone: the fixed levels come from [xv]. *)
let eval_components k x tr c =
  let nu = k.flat.Flatten.n_unknowns in
  for t = 0 to 3 do
    let v = k.nodes.((4 * tr) + t) in
    k.bias.(t) <- (if v < nu then x.(v) else k.xv.(v))
  done;
  Model.eval k.devices.(tr) k.bias c

let[@inline] eval_full k x tr =
  let o = 4 * tr in
  load_bias k x o;
  Model.eval k.devices.(tr) k.bias k.comps;
  Model.terminals_into k.comps k.cur o

(* The gate-only rule: only the tunneling half runs, and only the gate
   slot is written (the other three are read by no residual of the
   block). *)
let[@inline] eval_gate k x tr =
  let o = 4 * tr in
  load_bias k x o;
  Model.eval_tunneling k.devices.(tr) k.bias k.comps;
  Model.gate_current_into k.comps k.cur o

(* Evaluate every transistor of segment [s] at the run vector [x]. *)
let eval_segment k x s =
  let lists = k.lists in
  let lo = k.seg_off.(s) and hi = k.seg_off.(s + 1) in
  let gate_only = ref 0 in
  for p = lo to hi - 1 do
    let e = lists.(p) in
    if e land 1 = 1 then eval_full k x (e lsr 1)
    else begin
      eval_gate k x (e lsr 1);
      incr gate_only
    end
  done;
  k.evals <- k.evals + (hi - lo);
  k.gate_evals <- k.gate_evals + !gate_only

(* [eval_segment] after saving the slots it overwrites: four per full
   evaluation, the gate slot per gate-only one. *)
let perturb k x s =
  let lists = k.lists and cur = k.cur and saved = k.saved_cur in
  let lo = k.seg_off.(s) in
  for p = lo to k.seg_off.(s + 1) - 1 do
    let e = lists.(p) in
    let o = 4 * (e lsr 1) and q = 4 * (p - lo) in
    saved.(q) <- cur.(o);
    if e land 1 = 1 then begin
      saved.(q + 1) <- cur.(o + 1);
      saved.(q + 2) <- cur.(o + 2);
      saved.(q + 3) <- cur.(o + 3)
    end
  done;
  eval_segment k x s

let restore k s =
  let lists = k.lists and cur = k.cur and saved = k.saved_cur in
  let lo = k.seg_off.(s) in
  for p = lo to k.seg_off.(s + 1) - 1 do
    let e = lists.(p) in
    let o = 4 * (e lsr 1) and q = 4 * (p - lo) in
    cur.(o) <- saved.(q);
    if e land 1 = 1 then begin
      cur.(o + 1) <- saved.(q + 1);
      cur.(o + 2) <- saved.(q + 2);
      cur.(o + 3) <- saved.(q + 3)
    end
  done

(* Every transistor evaluated once at the unknowns [x], for a full
   residual vector. *)
let eval_all k x =
  Array.blit x 0 k.xv 0 k.flat.Flatten.n_unknowns;
  for tr = 0 to Array.length k.devices - 1 do
    eval_full k k.xv tr
  done;
  k.evals <- k.evals + Array.length k.devices

let[@inline] residual k i =
  let slots = k.flat.Flatten.touching.(i) in
  let acc = ref (-.k.inj.(i)) in
  for j = 0 to Array.length slots - 1 do
    acc := !acc +. k.cur.(slots.(j))
  done;
  !acc

let[@inline] clamp (lo : float) hi v =
  if v < lo then lo else if v > hi then hi else v

module Tm = Leakage_telemetry.Telemetry

let m_solves = Tm.counter "dc.solves"
let m_sweeps = Tm.counter "dc.sweeps"
let m_evals = Tm.counter "dc.device_evals"
let m_gate_evals = Tm.counter "dc.gate_evals"
let m_nonconverged = Tm.counter "dc.nonconverged"
let h_sweeps = Tm.histogram "dc.sweeps_per_solve"

(* The updates below run on float arrays and return nothing: a float
   returned from a function, or passed to one, would be boxed. [limits]
   holds the run's node floor, node ceiling and step clamp; each update
   leaves its largest voltage move in [moved.(0)]. *)

let fd_h = 1e-7

(* Scalar Newton update of unknown [i], whose transistors are segment
   [s]: a single-unknown block (the common case), or one column of a block
   whose Newton step failed. *)
let update_scalar k x i s =
  let v0 = x.(i) in
  eval_segment k x s;
  let f0 = residual k i in
  x.(i) <- v0 +. fd_h;
  eval_segment k x s;
  let f1 = residual k i in
  x.(i) <- v0;
  let g = (f1 -. f0) /. fd_h in
  if g > 0.0 && Float.is_finite g then begin
    let step = k.limits.(2) in
    let dv = clamp (-.step) step (-.f0 /. g) in
    let v' = clamp k.limits.(0) k.limits.(1) (v0 +. dv) in
    x.(i) <- v';
    k.moved.(0) <- abs_float (v' -. v0)
  end
  else k.moved.(0) <- 0.0

(* The block's transistors are evaluated once; a Jacobian column
   re-evaluates only the perturbed unknown's transistors and puts their
   currents back after. The Newton step runs in the kernel's scratch. *)
let update_block k x block s =
  let n = Array.length block in
  eval_segment k x s;
  for r = 0 to n - 1 do
    k.f0.(r) <- residual k block.(r)
  done;
  for j = 0 to n - 1 do
    let i = block.(j) and column = s + 1 + j in
    let saved = x.(i) in
    x.(i) <- saved +. fd_h;
    perturb k x column;
    for r = 0 to n - 1 do
      k.jac.((r * n) + j) <- (residual k block.(r) -. k.f0.(r)) /. fd_h
    done;
    x.(i) <- saved;
    restore k column
  done;
  for r = 0 to n - 1 do
    k.rhs.(r) <- -.k.f0.(r)
  done;
  match Leakage_numeric.Linalg.lu_solve_in_place ~n k.jac k.perm k.rhs k.dx with
  | () ->
    let step = k.limits.(2) in
    k.moved.(0) <- 0.0;
    for j = 0 to n - 1 do
      let i = block.(j) in
      let dv = clamp (-.step) step k.dx.(j) in
      let v' = clamp k.limits.(0) k.limits.(1) (x.(i) +. dv) in
      k.moved.(0) <- Float.max k.moved.(0) (abs_float (v' -. x.(i)));
      x.(i) <- v'
    done
  | exception Leakage_numeric.Linalg.Singular ->
    (* Fall back to node-at-a-time relaxation for this block. *)
    let biggest = ref 0.0 in
    for j = 0 to n - 1 do
      update_scalar k x block.(j) (s + 1 + j);
      biggest := Float.max !biggest k.moved.(0)
    done;
    k.moved.(0) <- !biggest

(* Gauss–Seidel over per-gate blocks. A series stack's nodes are tied
   together by on-transistor conductances that dwarf their coupling to the
   rest of the circuit, so node-at-a-time relaxation crawls on them; solving
   the handful of unknowns a gate owns as one small Newton system restores
   fast convergence while keeping the sweep linear in circuit size. *)
let run ?(options = default_options) ?(injections = []) k =
  let flat = k.flat in
  reset k injections;
  let nu = flat.Flatten.n_unknowns in
  let x = k.xv in
  Array.blit flat.Flatten.initial 0 x 0 nu;
  k.limits.(0) <- -.options.v_margin;
  k.limits.(1) <- flat.Flatten.vdd +. options.v_margin;
  k.limits.(2) <- options.max_step;
  let sweeps = ref 0 in
  let converged = ref (flat.Flatten.n_unknowns = 0) in
  let blocks = flat.Flatten.blocks in
  while (not !converged) && !sweeps < options.max_sweeps do
    incr sweeps;
    let max_update = ref 0.0 in
    for b = 0 to Array.length blocks - 1 do
      let block = blocks.(b) and s = k.first_seg.(b) in
      (match Array.length block with
       | 0 -> k.moved.(0) <- 0.0
       | 1 -> update_scalar k x block.(0) s
       | _ -> update_block k x block s);
      max_update := Float.max !max_update k.moved.(0)
    done;
    if !max_update < options.tol_voltage then converged := true
  done;
  (* Most callers keep only [voltages]; the registry records every solve
     that hit the sweep budget without settling. *)
  if Tm.enabled () then begin
    Tm.incr m_solves;
    Tm.add m_sweeps !sweeps;
    Tm.add m_evals k.evals;
    Tm.add m_gate_evals k.gate_evals;
    Tm.observe h_sweeps (float_of_int !sweeps);
    if not !converged then Tm.incr m_nonconverged
  end;
  { voltages = Array.sub x 0 nu; sweeps = !sweeps; converged = !converged }

let solve ?options ?injections flat = run ?options ?injections (kernel flat)

let solve_dense ?(injections = []) (flat : Flatten.t) =
  let module Solver = Leakage_numeric.Solver in
  let k = kernel flat in
  reset k injections;
  let n = flat.Flatten.n_unknowns in
  let f x =
    eval_all k x;
    Array.init n (residual k)
  in
  let margin = default_options.v_margin in
  let lower = Array.make n (-.margin) in
  let upper = Array.make n (flat.Flatten.vdd +. margin) in
  (* Residuals live at the nano-amp scale; tolerances must match. *)
  let options =
    { Solver.default_options with
      tol_residual = 1e-18;
      tol_step = 1e-13;
      max_iter = 200 }
  in
  let r = Solver.solve ~options ~lower ~upper ~f flat.Flatten.initial in
  if Tm.enabled () then Tm.add m_evals k.evals;
  {
    voltages = r.Solver.x;
    sweeps = r.Solver.iterations;
    converged = r.Solver.converged;
  }

let max_residual ?(injections = []) flat x =
  let k = kernel flat in
  reset k injections;
  eval_all k x;
  let worst = ref 0.0 in
  for i = 0 to flat.Flatten.n_unknowns - 1 do
    worst := Float.max !worst (abs_float (residual k i))
  done;
  !worst
