module Ba = Bigarray.Array1
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Pool = Leakage_parallel.Pool
module Tm = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace
module Variation = Leakage_device.Variation

(* Sharded counters make the per-domain hit/miss split visible: each worker
   domain owns a cache, so a cold lane shows up as misses on its shard. *)
let m_hits = Tm.counter "library.hits"
let m_misses = Tm.counter "library.misses"
let m_adopted = Tm.counter "library.adopted"
let m_shared_hits = Tm.counter "library.shared_hits"
let m_published = Tm.counter "library.published"
let h_build_us = Tm.histogram "library.build_us"

(* Response classes of the analytic σ pass whose integrals this library
   had to compute; [sensitivity.classes] minus these are memo hits. *)
let m_class_misses = Tm.counter "sensitivity.class_misses"

(* One domain's entries, one row per cell. A cell is a (gate code,
   strength bucket) pair packed as [code lsl 10 lor bucket] (16 bits); its
   row has one slot per input vector of the kind, indexed by the vector's
   bits ([Logic.int_of_vector] order), and a slot no entry was stored in
   yet holds [vacant]. Rows live in open addressing on the cell with linear
   probing, kept at most half full; cells are non-negative, so -1 marks an
   empty slot. A hit costs a probe per cell and an array read per gate — no
   polymorphic hash, nothing allocated. [filled] counts the entries stored
   in every row. *)
type table = {
  mutable cells : int array;
  mutable rows : Characterize.entry array array;
  mutable n_rows : int;
  mutable filled : int;
}

(* One sigma triple's die geometry, under the sigmas' σ_L, σ_Tox and
   σ_VDD bits: all [Die_geometry.compute] reads of them. *)
type geometry = {
  sigma_l : float;
  sigma_tox : float;
  sigma_vdd : float;
  geometry : Die_geometry.t;
}

(* One threshold sigma pair's quadratures, under the pair's bits: all
   [Vth_moments.plan] reads of the sigmas to build them. *)
type quads = {
  q_inter : float;
  q_intra : float;
  quads : Vth_moments.quad option array;
}

type t = {
  grid : Characterize.grid_spec;
  device : Leakage_device.Params.t;
  temp : float;
  vdd : float;
  tables : table Domain.DLS.key;
      (* Per-domain caches: characterization is a pure function of the key,
         so domains may characterize the same entry redundantly but never
         disagree — and the hot lookup path stays lock-free. *)
  published : (int, Characterize.entry) Hashtbl.t;
  integrals : Vth_moments.integrals array Vth_moments.Memo.t;
  mutable geometries : geometry list;
  mutable plans : quads list;
  publish_mutex : Mutex.t;
      (* Publish-once snapshot shared by every domain. A domain that misses
         its own cache adopts from here before paying for a characterization
         (ms-scale DC solves), and publishes what it does build — so N
         domains warm each entry once, not N times. Only the miss path takes
         the mutex; cache hits stay lock-free. The σ pass's per-class
         integrals, die geometries and quadratures are published the same
         way, under the same mutex. *)
}

let new_table () =
  { cells = Array.make 32 (-1); rows = Array.make 32 [||]; n_rows = 0;
    filled = 0 }

let create ?(grid = Characterize.default_grid) ~device ~temp ?vdd () =
  {
    grid;
    device;
    temp;
    vdd = Option.value vdd ~default:device.Leakage_device.Params.vdd;
    tables = Domain.DLS.new_key new_table;
    published = Hashtbl.create 64;
    integrals = Vth_moments.Memo.create 64;
    geometries = [];
    plans = [];
    publish_mutex = Mutex.create ();
  }

let device t = t.device
let temp t = t.temp
let vdd t = t.vdd

(* What a row slot holds until its entry is stored: compared by [==]
   only, never read as a characterization. *)
let vacant = Characterize.vacant

(* Each gate code's arity; -1 for a code no kind carries. *)
let code_arity =
  let a = Array.make 64 (-1) in
  List.iter (fun k -> a.(Gate.code k) <- Gate.arity k) Gate.all_kinds;
  a

(* The slot holding cell [c], or the empty slot where it would go. *)
let slot cells c =
  let mask = Array.length cells - 1 in
  let h = c * 0x9E3779B1 in
  let i = ref ((h lxor (h lsr 21)) land mask) in
  while
    let x = cells.(!i) in
    x <> c && x >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

let grow tb =
  let cells = tb.cells and rows = tb.rows in
  tb.cells <- Array.make (2 * Array.length cells) (-1);
  tb.rows <- Array.make (2 * Array.length cells) [||];
  Array.iteri
    (fun i c ->
      if c >= 0 then begin
        let j = slot tb.cells c in
        tb.cells.(j) <- c;
        tb.rows.(j) <- rows.(i)
      end)
    cells

(* Cell [c]'s row in this domain, made all [vacant] on first use. *)
let rec row_of tb c =
  let i = slot tb.cells c in
  if tb.cells.(i) = c then tb.rows.(i)
  else if 2 * (tb.n_rows + 1) > Array.length tb.cells then begin
    grow tb;
    row_of tb c
  end
  else begin
    let code = c lsr 10 in
    let arity = code_arity.(code) in
    if arity < 0 then ignore (Gate.of_code code);
    let row = Array.make (1 lsl arity) vacant in
    tb.cells.(i) <- c;
    tb.rows.(i) <- row;
    tb.n_rows <- tb.n_rows + 1;
    row
  end

type cache = { lib : t; table : table }

let cache t = { lib = t; table = Domain.DLS.get t.tables }

(* The packed cache key allots bits [0,16) to the input vector, [16,26) to
   the strength bucket and [26,32) to the gate code. Each field is
   range-checked before packing: a silent overflow would alias distinct
   characterizations onto one key and return the wrong entry. *)
let max_strength = 1023.0 /. 4.0

let strength_in_range strength =
  strength > 0.0 && Float.round (strength *. 4.0) <= 1023.0

let bad_strength strength =
  if not (strength > 0.0) then
    invalid_arg
      (Printf.sprintf "Library: strength %g must be positive" strength)
  else
    invalid_arg
      (Printf.sprintf
         "Library: strength %g exceeds the characterizable range (max %g)"
         strength max_strength)

(* The range test runs on the rounded float, so an infinite (or any too
   large) strength is rejected before [int_of_float] could wrap it. *)
let[@inline] strength_bucket strength =
  let q = Float.round (strength *. 4.0) in
  if not (strength > 0.0 && q <= 1023.0) then bad_strength strength;
  let b = int_of_float q in
  if b < 1 then 1 else b

let check_fields ~code ~arity =
  if code < 0 || code > 63 then
    invalid_arg
      (Printf.sprintf "Library: gate code %d outside [0, 63]" code);
  if arity > 16 then
    invalid_arg
      (Printf.sprintf "Library: vector arity %d exceeds the packable 16" arity)

let key kind strength vector =
  let code = Gate.code kind in
  check_fields ~code ~arity:(Array.length vector);
  (code lsl 26) lor (strength_bucket strength lsl 16)
  lor Logic.int_of_vector vector

let characterize_key t kind strength vector =
  let quantized = float_of_int (strength_bucket strength) /. 4.0 in
  Characterize.characterize ~grid:t.grid ~strength:quantized ~device:t.device
    ~temp:t.temp ~vdd:t.vdd kind vector

let published_find t k =
  Mutex.lock t.publish_mutex;
  let e = Hashtbl.find_opt t.published k in
  Mutex.unlock t.publish_mutex;
  e

let publish t k e =
  Mutex.lock t.publish_mutex;
  if not (Hashtbl.mem t.published k) then begin
    Tm.incr m_published;
    Hashtbl.replace t.published k e
  end;
  Mutex.unlock t.publish_mutex

(* This domain is cold on the key; another domain may already have paid for
   it. Two domains can still race to build the same entry (both miss before
   either publishes) — harmless, characterization is pure. *)
let miss t k kind strength vector =
  match published_find t k with
  | Some e ->
    Tm.incr m_shared_hits;
    e
  | None ->
    Tm.incr m_misses;
    let e =
      Trace.with_span ~cat:"library" "characterize"
        ~args:[ ("cell", Gate.name kind) ]
      @@ fun () ->
      Tm.time h_build_us (fun () -> characterize_key t kind strength vector)
    in
    publish t k e;
    e

(* A vacant slot of [row] filled: the entry under [k], adopted or
   characterized. *)
let store t tb row k kind strength vector =
  let e = miss t k kind strength vector in
  row.(k land 0xffff) <- e;
  tb.filled <- tb.filled + 1;
  e

let entry ?(strength = 1.0) t kind vector =
  let tb = Domain.DLS.get t.tables in
  let k = key kind strength vector in
  if Array.length vector <> code_arity.(k lsr 26) then
    (* no row has a slot for it, and characterization rejects it *)
    miss t k kind strength vector
  else begin
    let row = row_of tb (k lsr 16) in
    let e = row.(k land 0xffff) in
    if e != vacant then begin
      Tm.incr m_hits;
      e
    end
    else store t tb row k kind strength vector
  end

let cell (r : Netlist.Repr.raw) g =
  let code = Ba.get r.Netlist.Repr.r_kind_code g in
  check_fields ~code
    ~arity:
      (Ba.get r.Netlist.Repr.r_pin_off (g + 1)
      - Ba.get r.Netlist.Repr.r_pin_off g);
  (code lsl 10) lor strength_bucket (Ba.get r.Netlist.Repr.r_strength g)

let row c cell = row_of c.table cell

let gate_entry c (r : Netlist.Repr.raw) g ~bits =
  let code = Ba.get r.Netlist.Repr.r_kind_code g in
  let arity =
    Ba.get r.Netlist.Repr.r_pin_off (g + 1) - Ba.get r.Netlist.Repr.r_pin_off g
  in
  check_fields ~code ~arity;
  if bits lsr arity <> 0 then
    invalid_arg
      (Printf.sprintf "Library.gate_entry: bits %#x exceed %d pins" bits arity);
  let strength = Ba.get r.Netlist.Repr.r_strength g in
  let k = (code lsl 26) lor (strength_bucket strength lsl 16) lor bits in
  let row = row_of c.table (k lsr 16) in
  let e = row.(bits) in
  if e != vacant then begin
    Tm.incr m_hits;
    e
  end
  else
    store c.lib c.table row k (Gate.of_code code) strength
      (Logic.vector_of_int ~width:arity bits)

let count_hits n = Tm.add m_hits n

let precharacterize ?pool ?(kinds = Gate.all_kinds) t =
  let work =
    List.concat_map
      (fun kind ->
        List.map (fun vector -> (kind, vector))
          (Logic.all_vectors (Gate.arity kind)))
      kinds
    |> Array.of_list
  in
  let entries =
    Pool.map_array ?pool
      (fun (kind, vector) -> (key kind 1.0 vector, entry t kind vector))
      work
  in
  (* Workers filled their own domain caches; adopt every entry into the
     calling domain's cache so sequential code that runs next hits too. *)
  let tb = Domain.DLS.get t.tables in
  Array.iter
    (fun (k, e) ->
      let row = row_of tb (k lsr 16) in
      if row.(k land 0xffff) == vacant then begin
        Tm.incr m_adopted;
        row.(k land 0xffff) <- e;
        tb.filled <- tb.filled + 1
      end)
    entries

let entry_count t = (Domain.DLS.get t.tables).filled

let find_integrals t k =
  Mutex.lock t.publish_mutex;
  let ints = Vth_moments.Memo.find_opt t.integrals k in
  Mutex.unlock t.publish_mutex;
  ints

(* Computed outside the mutex: two lanes can only race on one key across
   concurrent analyses (one analysis's classes have distinct tables), and
   both compute the same bits; the first to publish wins. *)
let class_integrals t plan tabs =
  let k = Vth_moments.key plan tabs in
  match find_integrals t k with
  | Some ints -> ints
  | None ->
    Tm.incr m_class_misses;
    let ints = Vth_moments.class_integrals plan tabs in
    Mutex.lock t.publish_mutex;
    let ints =
      match Vth_moments.Memo.find_opt t.integrals k with
      | Some first -> first
      | None ->
        Vth_moments.Memo.add t.integrals k ints;
        ints
    in
    Mutex.unlock t.publish_mutex;
    ints

let[@inline] same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

let find_geometry t (sigmas : Variation.sigmas) =
  List.find_opt
    (fun g ->
      same_bits g.sigma_l sigmas.Variation.sigma_l
      && same_bits g.sigma_tox sigmas.Variation.sigma_tox
      && same_bits g.sigma_vdd sigmas.Variation.sigma_vdd)
    t.geometries

(* Computed outside the mutex, as the class integrals are: racing lanes
   compute the same bits, and the first to publish wins. *)
let die_geometry t sigmas =
  Mutex.lock t.publish_mutex;
  let known = find_geometry t sigmas in
  Mutex.unlock t.publish_mutex;
  match known with
  | Some g -> g.geometry
  | None ->
    let geometry =
      Die_geometry.compute ~device:t.device ~temp:t.temp ~vdd:t.vdd ~sigmas
    in
    Mutex.lock t.publish_mutex;
    let geometry =
      match find_geometry t sigmas with
      | Some first -> first.geometry
      | None ->
        t.geometries <-
          { sigma_l = sigmas.Variation.sigma_l;
            sigma_tox = sigmas.Variation.sigma_tox;
            sigma_vdd = sigmas.Variation.sigma_vdd; geometry }
          :: t.geometries;
        geometry
    in
    Mutex.unlock t.publish_mutex;
    geometry

let find_quads t (sigmas : Variation.sigmas) =
  List.find_opt
    (fun q ->
      same_bits q.q_inter sigmas.Variation.sigma_vth_inter
      && same_bits q.q_intra sigmas.Variation.sigma_vth_intra)
    t.plans

(* The sets are rebuilt per call (they carry the geometry sigmas too); the
   quadratures, computed outside the mutex, are published once per pair. *)
let plan t sigmas =
  Mutex.lock t.publish_mutex;
  let known = find_quads t sigmas in
  Mutex.unlock t.publish_mutex;
  match known with
  | Some q -> Vth_moments.plan ~quads:q.quads sigmas
  | None ->
    let p = Vth_moments.plan sigmas in
    Mutex.lock t.publish_mutex;
    let p =
      match find_quads t sigmas with
      | Some first -> Vth_moments.plan ~quads:first.quads sigmas
      | None ->
        t.plans <-
          { q_inter = sigmas.Variation.sigma_vth_inter;
            q_intra = sigmas.Variation.sigma_vth_intra;
            quads = p.Vth_moments.quads }
          :: t.plans;
        p
    in
    Mutex.unlock t.publish_mutex;
    p
