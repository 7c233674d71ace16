module Ba = Bigarray.Array1
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Pool = Leakage_parallel.Pool
module Tm = Leakage_telemetry.Telemetry
module Trace = Leakage_telemetry.Trace

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

(* One domain's entries: open addressing on the packed key with linear
   probing, kept at most half full. Keys are non-negative (32 bits at
   most), so -1 marks an empty slot; a hit costs a multiply, a mask and an
   int compare per probe — no polymorphic hash, nothing allocated. *)
type table = {
  mutable keys : int array;
  mutable vals : Characterize.entry option array;
  mutable size : int;
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
  publish_mutex : Mutex.t;
      (* Publish-once snapshot shared by every domain. A domain that misses
         its own cache adopts from here before paying for a characterization
         (ms-scale DC solves), and publishes what it does build — so N
         domains warm each entry once, not N times. Only the miss path takes
         the mutex; cache hits stay lock-free. The σ pass's per-class
         integrals are published the same way, under the same mutex. *)
}

let new_table () =
  { keys = Array.make 64 (-1); vals = Array.make 64 None; size = 0 }

let create ?(grid = Characterize.default_grid) ~device ~temp ?vdd () =
  {
    grid;
    device;
    temp;
    vdd = Option.value vdd ~default:device.Leakage_device.Params.vdd;
    tables = Domain.DLS.new_key new_table;
    published = Hashtbl.create 64;
    integrals = Vth_moments.Memo.create 64;
    publish_mutex = Mutex.create ();
  }

let device t = t.device
let temp t = t.temp
let vdd t = t.vdd

(* The slot holding [k], or the empty slot where it would go. *)
let slot keys k =
  let mask = Array.length keys - 1 in
  let h = k * 0x9E3779B1 in
  let i = ref ((h lxor (h lsr 21)) land mask) in
  while
    let x = keys.(!i) in
    x <> k && x >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

(* The entry stored under [k], if any: the table's own option, so a hit
   allocates nothing. *)
let hit tb k =
  let i = slot tb.keys k in
  if tb.keys.(i) = k then tb.vals.(i) else None

let rec add tb k e =
  if 2 * (tb.size + 1) > Array.length tb.keys then begin
    let keys = tb.keys and vals = tb.vals in
    tb.keys <- Array.make (2 * Array.length keys) (-1);
    tb.vals <- Array.make (2 * Array.length keys) None;
    tb.size <- 0;
    Array.iteri
      (fun i k -> match vals.(i) with Some e when k >= 0 -> add tb k e | _ -> ())
      keys
  end;
  let i = slot tb.keys k in
  if tb.keys.(i) <> k then begin
    tb.keys.(i) <- k;
    tb.vals.(i) <- Some e;
    tb.size <- tb.size + 1
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
let miss t tb k kind strength vector =
  match published_find t k with
  | Some e ->
    Tm.incr m_shared_hits;
    add tb k e;
    e
  | None ->
    Tm.incr m_misses;
    let e =
      Trace.with_span ~cat:"library" "characterize"
        ~args:[ ("cell", Gate.name kind) ]
      @@ fun () ->
      Tm.time h_build_us (fun () -> characterize_key t kind strength vector)
    in
    add tb k e;
    publish t k e;
    e

let entry ?(strength = 1.0) t kind vector =
  let tb = Domain.DLS.get t.tables in
  let k = key kind strength vector in
  match hit tb k with
  | Some e ->
    Tm.incr m_hits;
    e
  | None -> miss t tb k kind strength vector

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
  match hit c.table k with
  | Some e ->
    Tm.incr m_hits;
    e
  | None ->
    miss c.lib c.table k (Gate.of_code code) strength
      (Logic.vector_of_int ~width:arity bits)

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
      if Option.is_none (hit tb k) then begin
        Tm.incr m_adopted;
        add tb k e
      end)
    entries

let entry_count t = (Domain.DLS.get t.tables).size

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
