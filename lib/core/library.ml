module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
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

type t = {
  grid : Characterize.grid_spec;
  device : Leakage_device.Params.t;
  temp : float;
  vdd : float;
  cache : (int, Characterize.entry) Hashtbl.t Domain.DLS.key;
      (* Per-domain caches: characterization is a pure function of the key,
         so domains may characterize the same entry redundantly but never
         disagree — and the hot lookup path stays lock-free. *)
  published : (int, Characterize.entry) Hashtbl.t;
  publish_mutex : Mutex.t;
      (* Publish-once snapshot shared by every domain. A domain that misses
         its own cache adopts from here before paying for a characterization
         (ms-scale DC solves), and publishes what it does build — so N
         domains warm each entry once, not N times. Only the miss path takes
         the mutex; cache hits stay lock-free. *)
}

let create ?(grid = Characterize.default_grid) ~device ~temp ?vdd () =
  {
    grid;
    device;
    temp;
    vdd = Option.value vdd ~default:device.Leakage_device.Params.vdd;
    cache = Domain.DLS.new_key (fun () -> Hashtbl.create 64);
    published = Hashtbl.create 64;
    publish_mutex = Mutex.create ();
  }

let device t = t.device
let temp t = t.temp
let vdd t = t.vdd
let cache t = Domain.DLS.get t.cache

(* The packed cache key allots bits [0,16) to the input vector, [16,26) to
   the strength bucket and [26,32) to the gate code. Each field is
   range-checked before packing: a silent overflow would alias distinct
   characterizations onto one key and return the wrong entry. *)
let max_strength = 1023.0 /. 4.0

let strength_in_range strength =
  strength > 0.0 && Float.round (strength *. 4.0) <= 1023.0

(* The range test runs on the rounded float, so an infinite (or any too
   large) strength is rejected before [int_of_float] could wrap it. *)
let strength_bucket strength =
  if not (strength > 0.0) then
    invalid_arg
      (Printf.sprintf "Library: strength %g must be positive" strength);
  let q = Float.round (strength *. 4.0) in
  if q > 1023.0 then
    invalid_arg
      (Printf.sprintf
         "Library: strength %g exceeds the characterizable range (max %g)"
         strength max_strength);
  Stdlib.max 1 (int_of_float q)

let key kind strength vector =
  let code = Gate.code kind in
  if code < 0 || code > 63 then
    invalid_arg
      (Printf.sprintf "Library: gate code %d for %s outside [0, 63]" code
         (Gate.name kind));
  if Array.length vector > 16 then
    invalid_arg
      (Printf.sprintf "Library: vector arity %d exceeds the packable 16"
         (Array.length vector));
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

let entry ?(strength = 1.0) t kind vector =
  let cache = cache t in
  let k = key kind strength vector in
  match Hashtbl.find_opt cache k with
  | Some e ->
    Tm.incr m_hits;
    e
  | None ->
    (* This domain is cold on the key; another domain may already have paid
       for it. Two domains can still race to build the same entry (both miss
       before either publishes) — harmless, characterization is pure. *)
    (match published_find t k with
     | Some e ->
       Tm.incr m_shared_hits;
       Hashtbl.replace cache k e;
       e
     | None ->
       Tm.incr m_misses;
       let e =
         Trace.with_span ~cat:"library" "characterize"
           ~args:[ ("cell", Gate.name kind) ]
         @@ fun () ->
         Tm.time h_build_us (fun () -> characterize_key t kind strength vector)
       in
       Hashtbl.replace cache k e;
       publish t k e;
       e)

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
  let cache = cache t in
  Array.iter
    (fun (k, e) ->
      if not (Hashtbl.mem cache k) then begin
        Tm.incr m_adopted;
        Hashtbl.replace cache k e
      end)
    entries

let entry_count t = Hashtbl.length (cache t)
