module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Library = Leakage_core.Library
module Characterize = Leakage_core.Characterize
module Estimator = Leakage_core.Estimator
module Tm = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace

let m_edits = Tm.counter "incr.edits"
let m_undos = Tm.counter "incr.undos"
let m_refreshes = Tm.counter "incr.refreshes"
let m_batches = Tm.counter "incr.batches"
let h_cone_gates = Tm.histogram "incr.cone_gates"
let h_cone_lookups = Tm.histogram "incr.cone_lookups"
let h_batch_edits = Tm.histogram "incr.batch_edits"

type stats = {
  edits : int;
  undos : int;
  refreshes : int;
  logic_evals : int;
  entry_updates : int;
  net_updates : int;
  leakage_lookups : int;
}

(* Propagation scratch, one per session. One propagation (an edit, an undo,
   or a whole batch) drains the worklist and accumulates its totals/baseline
   effect as a *delta* in topological order; [merge] adds that delta to the
   session scalars once and zeroes it for the next propagation. *)
type scratch = {
  s_work : Cone.Worklist.t;
  s_nets : Cone.Dirty_set.t;
  s_gates : Cone.Dirty_set.t;
  s_loading : float array array;           (* per arity: port loadings *)
  s_out : float array;                     (* one gate's components *)
  mutable s_totals : Report.components;    (* delta to session totals *)
  mutable s_baseline : Report.components;  (* delta to session baseline *)
  mutable s_logic : int;
  mutable s_entry : int;
  mutable s_net : int;
  mutable s_lookup : int;
}

type t = {
  netlist : Netlist.t;                 (* structural info; kind/strength overridden below *)
  wiring : Estimator.wiring;           (* the netlist's pins, as the kernel reads them *)
  n_gates : int;
  order_ids : int array;               (* gate ids in topological order *)
  base_lib : Library.t;
  refresh_every : int;
  input_index : int array;             (* net -> primary-input position, -1 otherwise *)
  priority : int array;                (* gate id -> topological position *)
  (* current editable state *)
  kind : Gate.kind array;
  strength : float array;
  libs : Library.t array;
  pattern : Logic.vector;
  (* cached estimate *)
  values : Logic.value array;          (* per net *)
  entries : Characterize.entry array;  (* per gate *)
  entry_libs : Library.t array;        (* library each entry was resolved from *)
  net_injection : float array;         (* per net *)
  loaded : Report.components array;    (* per gate, loading-aware *)
  isolated : Report.components array;  (* per gate, no-loading nominal *)
  mutable totals : Report.components;
  mutable baseline : Report.components;
  scratch : scratch;                   (* reused by every propagation *)
  (* undo log *)
  mutable log : Edit.t list;           (* inverse edits, most recent first *)
  mutable depth : int;
  mutable since_refresh : int;
  (* counters *)
  mutable n_edits : int;
  mutable n_undos : int;
  mutable n_refreshes : int;
  mutable n_logic : int;
  mutable n_entry : int;
  mutable n_net : int;
  mutable n_lookup : int;
}

let sub_c (a : Report.components) (b : Report.components) =
  { Report.isub = a.Report.isub -. b.Report.isub;
    igate = a.Report.igate -. b.Report.igate;
    ibtbt = a.Report.ibtbt -. b.Report.ibtbt }

let check_gate t g =
  if g < 0 || g >= t.n_gates then
    invalid_arg (Printf.sprintf "Incremental: unknown gate id %d" g)

let entry_of t g_id vector =
  Library.entry ~strength:t.strength.(g_id) t.libs.(g_id) t.kind.(g_id) vector

let vector_of t g_id =
  Array.init
    (Netlist.gate_arity t.netlist g_id)
    (fun p -> t.values.(Netlist.gate_pin t.netlist g_id p))

(* -------------------------------------------------------------- scratch *)

let max_arity =
  List.fold_left (fun m k -> Stdlib.max m (Gate.arity k)) 0 Gate.all_kinds

let fresh_scratch ~priority ~n_nets ~n_gates =
  {
    s_work = Cone.Worklist.create ~priority;
    s_nets = Cone.Dirty_set.create n_nets;
    s_gates = Cone.Dirty_set.create n_gates;
    s_loading = Array.init (max_arity + 1) (fun a -> Array.make (a + 1) 0.0);
    s_out = Array.make 3 0.0;
    s_totals = Report.zero;
    s_baseline = Report.zero;
    s_logic = 0;
    s_entry = 0;
    s_net = 0;
    s_lookup = 0;
  }

(* Fold one propagation's effect into the session and zero the scratch. *)
let merge t s =
  if Tm.enabled () then begin
    (* cone extents: gates the worklist visited, gates re-looked-up *)
    Tm.observe h_cone_gates (float_of_int s.s_logic);
    Tm.observe h_cone_lookups (float_of_int s.s_lookup)
  end;
  t.totals <- Report.add t.totals s.s_totals;
  t.baseline <- Report.add t.baseline s.s_baseline;
  t.n_logic <- t.n_logic + s.s_logic;
  t.n_entry <- t.n_entry + s.s_entry;
  t.n_net <- t.n_net + s.s_net;
  t.n_lookup <- t.n_lookup + s.s_lookup;
  s.s_totals <- Report.zero;
  s.s_baseline <- Report.zero;
  s.s_logic <- 0;
  s.s_entry <- 0;
  s.s_net <- 0;
  s.s_lookup <- 0

(* Loading-aware estimate of one gate at the current injections: the
   estimator's own kernel, with the entry's nominal pin currents as the
   cell's share of each net (the session is a one-pass estimate). The port
   buffers are the session's, one per arity: [gate_leakage] writes every
   slot before it reads one. *)
let lookup_components t g_id =
  let e = t.entries.(g_id) in
  let own = e.Characterize.pin_injection in
  let out = t.scratch.s_out in
  ignore
    (Estimator.gate_leakage t.wiring g_id e ~net_injection:t.net_injection
       ~own ~loading:t.scratch.s_loading.(Array.length own) ~out);
  { Report.isub = out.(0); igate = out.(1); ibtbt = out.(2) }

let relookup t s g_id =
  let c = lookup_components t g_id in
  s.s_totals <- Report.add s.s_totals (sub_c c t.loaded.(g_id));
  t.loaded.(g_id) <- c;
  s.s_lookup <- s.s_lookup + 1

(* Full recomputation of the cached estimate from the current editable
   state. Used at creation and periodically to squash float drift. *)
let refresh t =
  Trace.with_span ~cat:"incr" "refresh" @@ fun () ->
  Tm.incr m_refreshes;
  let inputs = Netlist.inputs t.netlist in
  Array.iteri (fun i n -> t.values.(n) <- t.pattern.(i)) inputs;
  (* logic + entries in topological order so every gate sees settled input
     values (the netlist's gate-id order is not guaranteed topological) *)
  Array.iter
    (fun g_id ->
      let vec = vector_of t g_id in
      t.values.(Netlist.gate_out t.netlist g_id) <-
        Gate.eval_logic t.kind.(g_id) vec;
      t.entries.(g_id) <- entry_of t g_id vec;
      t.entry_libs.(g_id) <- t.libs.(g_id);
      t.isolated.(g_id) <- t.entries.(g_id).Characterize.nominal_isolated)
    t.order_ids;
  Array.fill t.net_injection 0 (Array.length t.net_injection) 0.0;
  for g_id = 0 to t.n_gates - 1 do
    let e = t.entries.(g_id) in
    Netlist.iter_pins t.netlist g_id (fun pin net ->
        t.net_injection.(net) <-
          t.net_injection.(net) +. e.Characterize.pin_injection.(pin))
  done;
  t.totals <- Report.zero;
  t.baseline <- Report.zero;
  for id = 0 to t.n_gates - 1 do
    let c = lookup_components t id in
    t.loaded.(id) <- c;
    t.totals <- Report.add t.totals c;
    t.baseline <- Report.add t.baseline t.isolated.(id);
    t.n_lookup <- t.n_lookup + 1
  done;
  t.n_refreshes <- t.n_refreshes + 1;
  t.since_refresh <- 0

(* Drain the worklist in topological order: refresh each popped gate's
   characterization entry (vector/kind/strength/library key), push loading
   deltas onto its input nets, and propagate logic flips downstream. Then
   re-look-up leakage for every gate touching a dirtied net, and merge.
   A gate is pushed only by the drivers of its inputs, which pop before it,
   so each gate is visited at most once however many edits were staged.
   Entry changes are detected by comparing the stored entry's key against
   the session state — never by physical identity, which would vary with
   the (per domain) characterization cache answering the lookup. *)
let propagate t =
  let s = t.scratch in
  let rec drain () =
    match Cone.Worklist.pop s.s_work with
    | None -> ()
    | Some g_id ->
      s.s_logic <- s.s_logic + 1;
      let vec = vector_of t g_id in
      let e = t.entries.(g_id) in
      let changed =
        t.entry_libs.(g_id) != t.libs.(g_id)
        || t.kind.(g_id) <> e.Characterize.kind
        || not (Float.equal t.strength.(g_id) e.Characterize.strength)
        || vec <> e.Characterize.vector
      in
      if changed then begin
        s.s_entry <- s.s_entry + 1;
        let e' = entry_of t g_id vec in
        Netlist.iter_pins t.netlist g_id (fun pin net ->
            let d =
              e'.Characterize.pin_injection.(pin)
              -. e.Characterize.pin_injection.(pin)
            in
            if d <> 0.0 then begin
              t.net_injection.(net) <- t.net_injection.(net) +. d;
              Cone.Dirty_set.add s.s_nets net
            end);
        t.entries.(g_id) <- e';
        t.entry_libs.(g_id) <- t.libs.(g_id);
        s.s_baseline <-
          Report.add (sub_c s.s_baseline t.isolated.(g_id))
            e'.Characterize.nominal_isolated;
        t.isolated.(g_id) <- e'.Characterize.nominal_isolated;
        Cone.Dirty_set.add s.s_gates g_id
      end;
      let out' = Gate.eval_logic t.kind.(g_id) vec in
      let out_net = Netlist.gate_out t.netlist g_id in
      if out' <> t.values.(out_net) then begin
        t.values.(out_net) <- out';
        Netlist.iter_fanout t.netlist out_net (Cone.Worklist.push s.s_work)
      end;
      drain ()
  in
  drain ();
  Cone.Dirty_set.iter
    (fun net ->
      s.s_net <- s.s_net + 1;
      let d = Netlist.driver_id t.netlist net in
      if d >= 0 then Cone.Dirty_set.add s.s_gates d;
      Netlist.iter_fanout t.netlist net (Cone.Dirty_set.add s.s_gates))
    s.s_nets;
  Cone.Dirty_set.iter (fun g_id -> relookup t s g_id) s.s_gates;
  Cone.Dirty_set.clear s.s_nets;
  Cone.Dirty_set.clear s.s_gates;
  merge t s

let floats_match a b = Float.equal a b

(* Pure validity checks, shared by [stage] and [apply_batch]'s pre-pass
   (a batch validates every edit before staging any, so a malformed edit
   raises before the session is touched). None of them read state that
   staging mutates, so validating up front is equivalent to validating
   edit by edit. *)
let validate t (edit : Edit.t) =
  match edit with
  | Edit.Resize (g, s) ->
    check_gate t g;
    if s <= 0.0 then invalid_arg "Incremental: Resize strength must be positive";
    if not (Library.strength_in_range s) then
      invalid_arg
        (Printf.sprintf
           "Incremental: Resize strength %g exceeds the library's \
            characterizable range (max %g)"
           s Library.max_strength)
  | Edit.Retype (g, k) ->
    check_gate t g;
    if Gate.arity k <> Netlist.gate_arity t.netlist g then
      invalid_arg
        (Printf.sprintf "Incremental: Retype g%d to %s changes arity" g
           (Gate.name k))
  | Edit.Relib (g, l) ->
    check_gate t g;
    if
      not
        (floats_match (Library.temp l) (Library.temp t.base_lib)
         && floats_match (Library.vdd l) (Library.vdd t.base_lib))
    then
      invalid_arg
        "Incremental: Relib library must share temperature and supply with \
         the session"
  | Edit.Set_input (n, _) ->
    if n < 0 || n >= Array.length t.input_index || t.input_index.(n) < 0 then
      invalid_arg
        (Printf.sprintf "Incremental: Set_input on non-input net %d" n)

(* Record the inverse, mutate the editable state, and seed the worklist.
   Propagation happens once per apply, undo or batch. *)
let stage t edit =
  validate t edit;
  let work = t.scratch.s_work in
  match (edit : Edit.t) with
  | Edit.Resize (g, s) ->
    let inverse = Edit.Resize (g, t.strength.(g)) in
    t.strength.(g) <- s;
    Cone.Worklist.push work g;
    inverse
  | Edit.Retype (g, k) ->
    let inverse = Edit.Retype (g, t.kind.(g)) in
    t.kind.(g) <- k;
    Cone.Worklist.push work g;
    inverse
  | Edit.Relib (g, l) ->
    let inverse = Edit.Relib (g, t.libs.(g)) in
    t.libs.(g) <- l;
    Cone.Worklist.push work g;
    inverse
  | Edit.Set_input (n, b) ->
    let old = Logic.to_bool t.values.(n) in
    let inverse = Edit.Set_input (n, old) in
    if old <> b then begin
      let v = Logic.of_bool b in
      t.values.(n) <- v;
      t.pattern.(t.input_index.(n)) <- v;
      Netlist.iter_fanout t.netlist n (Cone.Worklist.push work)
    end;
    inverse

let maybe_refresh t =
  if t.refresh_every > 0 && t.since_refresh >= t.refresh_every then refresh t

let log_inverse t inverse =
  t.log <- inverse :: t.log;
  t.depth <- t.depth + 1

let apply t edit =
  let inverse = stage t edit in
  propagate t;
  log_inverse t inverse;
  Tm.incr m_edits;
  t.n_edits <- t.n_edits + 1;
  t.since_refresh <- t.since_refresh + 1;
  maybe_refresh t

(* Every edit is staged before the one propagation, so a gate reached by
   several edits is visited once, in topological order, and the batch
   costs at most one estimate's gate visits. The inverses are logged left
   to right, so the most recent edit's inverse pops first. *)
let apply_batch t edits =
  match edits with
  | [] -> ()
  | [ edit ] -> apply t edit
  | _ ->
    List.iter (validate t) edits;
    let n = List.length edits in
    if Tm.enabled () then begin
      Tm.incr m_batches;
      Tm.add m_edits n;
      Tm.observe h_batch_edits (float_of_int n)
    end;
    List.iter (fun edit -> log_inverse t (stage t edit)) edits;
    propagate t;
    t.n_edits <- t.n_edits + n;
    t.since_refresh <- t.since_refresh + n;
    maybe_refresh t

let set_vector t v =
  let inputs = Netlist.inputs t.netlist in
  if Array.length v <> Array.length inputs then
    invalid_arg
      (Printf.sprintf "Incremental.set_vector: %d inputs expected, got %d"
         (Array.length inputs) (Array.length v));
  let edits = ref [] in
  Array.iteri
    (fun i n ->
      if t.pattern.(i) <> v.(i) then
        edits := Edit.Set_input (n, Logic.to_bool v.(i)) :: !edits)
    inputs;
  apply_batch t !edits

let undo t =
  match t.log with
  | [] -> invalid_arg "Incremental.undo: empty undo log"
  | inverse :: rest ->
    t.log <- rest;
    t.depth <- t.depth - 1;
    ignore (stage t inverse);
    propagate t;
    Tm.incr m_undos;
    t.n_undos <- t.n_undos + 1;
    (* undos accumulate the same float drift as edits *)
    t.since_refresh <- t.since_refresh + 1;
    maybe_refresh t

type checkpoint = int

let checkpoint t = t.depth

let rollback t cp =
  if cp < 0 || cp > t.depth then
    invalid_arg "Incremental.rollback: checkpoint already undone past";
  while t.depth > cp do
    undo t
  done

let undo_depth t = t.depth

let totals t = t.totals
let baseline_totals t = t.baseline

(* Variance propagation over the session's cached per-gate state. The cone
   machinery already keeps [entries]/[loaded]/[isolated] current after every
   edit, so assembling σ here costs only the class bucketing and the moment
   sums — no estimator pass. The per-gate state carries the same float drift
   as the session totals; [refresh] squashes both, after which the result is
   bit-identical to a fresh [Sensitivity.estimate_totals] analysis. The
   analysis reads components as flat float arrays: the records are copied
   into them on the way in. *)
let sigma ?lin_tol ~sigmas t =
  let flat (cs : Report.components array) =
    let a = Array.make (3 * Array.length cs) 0.0 in
    Array.iteri
      (fun g (c : Report.components) ->
        a.(3 * g) <- c.Report.isub;
        a.((3 * g) + 1) <- c.Report.igate;
        a.((3 * g) + 2) <- c.Report.ibtbt)
      cs;
    a
  in
  Leakage_core.Sensitivity.analyze ?lin_tol ~sigmas t.base_lib
    ~entries:t.entries ~loaded:(flat t.loaded) ~isolated:(flat t.isolated)

let gate_components t g =
  check_gate t g;
  t.loaded.(g)

let pattern t = Array.copy t.pattern
let assignment t = Array.copy t.values
let net_injection t = Array.copy t.net_injection
let netlist t = t.netlist

let current_netlist t =
  (* copies: the session keeps mutating its kind/strength state, the
     returned netlist must not follow along *)
  Netlist.with_kinds_strengths t.netlist ~kinds:(Array.copy t.kind)
    ~strengths:(Array.copy t.strength)

let library_of_gate t g =
  check_gate t g;
  t.libs.(g)

let stats t =
  {
    edits = t.n_edits;
    undos = t.n_undos;
    refreshes = t.n_refreshes;
    logic_evals = t.n_logic;
    entry_updates = t.n_entry;
    net_updates = t.n_net;
    leakage_lookups = t.n_lookup;
  }

let create ?(refresh_every = 64) ?library_of_gate base netlist pattern =
  if refresh_every < 0 then
    invalid_arg "Incremental.create: negative refresh_every";
  let inputs = Netlist.inputs netlist in
  if Array.length pattern <> Array.length inputs then
    invalid_arg
      (Printf.sprintf "Incremental.create: %d inputs expected, pattern has %d"
         (Array.length inputs) (Array.length pattern));
  (* force the lazy driver/fanout caches now, so sessions sharing a netlist
     across domains only ever read them *)
  Netlist.warm netlist;
  let n_gates = Netlist.gate_count netlist in
  let n_nets = Netlist.net_count netlist in
  let order_ids = Netlist.topo_ids netlist in
  let priority = Array.make n_gates 0 in
  Array.iteri (fun pos g_id -> priority.(g_id) <- pos) order_ids;
  let input_index = Array.make n_nets (-1) in
  Array.iteri (fun i n -> input_index.(n) <- i) inputs;
  let libs =
    match library_of_gate with
    | Some f -> Array.init n_gates f
    | None -> Array.make n_gates base
  in
  (* Seed values and entries eagerly (no edits are staged yet, so the
     netlist's own kinds/strengths are current); [refresh] below recomputes
     injections and totals from them. *)
  let values = Array.make n_nets Logic.Zero in
  Leakage_circuit.Simulate.run_into netlist pattern values;
  let entries =
    Array.init n_gates (fun g ->
        Library.entry
          ~strength:(Netlist.gate_strength netlist g)
          libs.(g)
          (Netlist.gate_kind netlist g)
          (Array.init (Netlist.gate_arity netlist g) (fun p ->
               values.(Netlist.gate_pin netlist g p))))
  in
  let t =
    {
      netlist;
      wiring = Estimator.wiring netlist;
      n_gates;
      order_ids;
      base_lib = base;
      refresh_every;
      input_index;
      priority;
      kind = Array.init n_gates (Netlist.gate_kind netlist);
      strength = Array.init n_gates (Netlist.gate_strength netlist);
      libs;
      pattern = Array.copy pattern;
      values;
      entries;
      entry_libs = Array.copy libs;
      net_injection = Array.make n_nets 0.0;
      loaded = Array.make n_gates Report.zero;
      isolated = Array.make n_gates Report.zero;
      totals = Report.zero;
      baseline = Report.zero;
      scratch = fresh_scratch ~priority ~n_nets ~n_gates;
      log = [];
      depth = 0;
      since_refresh = 0;
      n_edits = 0;
      n_undos = 0;
      n_refreshes = 0;
      n_logic = 0;
      n_entry = 0;
      n_net = 0;
      n_lookup = 0;
    }
  in
  refresh t;
  (* the construction pass is not a drift refresh *)
  t.n_refreshes <- 0;
  t.n_lookup <- 0;
  t
