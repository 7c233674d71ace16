(** Characterized cell library with lazy caching.

    One [Library.t] corresponds to one (device, temperature, supply)
    operating corner. Entries are characterized on first use and cached, so
    estimating a large circuit only pays for the (kind, vector) pairs that
    actually occur.

    The cache is {e per-domain} ([Domain.DLS]): characterization is a pure
    function of the key, so domains can never observe a torn table — and
    hit-path lookups stay lock-free. A library value can therefore be shared
    freely across a {!Leakage_parallel.Pool}.

    Behind the per-domain caches sits one shared {e publish-once snapshot}:
    a domain that misses its own cache first adopts the entry another domain
    already built (counter [library.shared_hits]) and only characterizes —
    and publishes — when nobody has ([library.misses] therefore counts
    actual characterization solves). This is what stops a suite fan-out from
    warming the same entries independently on every lane; only the rare miss
    path takes the snapshot's mutex.

    The library also keeps the analytic σ pass's per-class threshold-axis
    integrals ({!class_integrals}), its die geometry per sigma triple
    ({!die_geometry}) and its quadratures per threshold sigma pair
    ({!plan}), each published once under the same mutex: they live and
    die with the library value, and nothing clears them. *)

type t

val create :
  ?grid:Characterize.grid_spec ->
  device:Leakage_device.Params.t ->
  temp:float ->
  ?vdd:float ->
  unit ->
  t

val device : t -> Leakage_device.Params.t
val temp : t -> float
val vdd : t -> float

val max_strength : float
(** Largest drive strength an entry can be characterized at (255.75).
    Strength buckets quantize to quarter steps in [(0, 1023]]; a strength
    whose bucket would overflow that range used to silently saturate —
    aliasing every strength ≥ 255.75 onto one cache entry — and now raises
    instead. *)

val strength_in_range : float -> bool
(** Whether {!entry} accepts this strength: positive and quantizing to a
    bucket no greater than {!max_strength} allows. Strengths below an eighth
    still clamp {e up} to the smallest bucket (0.25), which only coarsens,
    never aliases distinct keys. *)

val entry :
  ?strength:float ->
  t -> Leakage_circuit.Gate.kind -> Leakage_circuit.Logic.vector ->
  Characterize.entry
(** Characterize-on-demand lookup. [strength] (default 1.0) is quantized to
    quarter steps — entries are shared within a bucket. Raises
    [Invalid_argument] when the cache key cannot be packed without
    collisions: strength outside {!strength_in_range} (non-positive, NaN,
    or beyond {!max_strength}, infinity included), a vector of arity > 16,
    or a gate code ≥ 64.

    Each domain keeps its entries in rows, one per {e cell} — a (gate
    code, strength bucket) pair — with one slot per input vector of the
    kind. Cost of a hit: one [Domain.DLS] read, the packed key (gate code,
    strength bucket, vector bits), one probe of this domain's int-keyed
    row table and a slot read, with no allocation. A miss on this domain
    fills the slot with the entry another domain published (a mutex) or
    characterizes it (milliseconds of DC solves). *)

type cache
(** The calling domain's rows of one library: what {!row} and
    {!gate_entry} read. *)

val cache : t -> cache
(** [cache t] fetches the calling domain's cache of [t] — one
    [Domain.DLS] read, so a loop over many gates fetches it once. The value
    belongs to the calling domain: do not hand it to another. *)

val cell : Leakage_circuit.Netlist.Repr.raw -> int -> int
(** [cell raw g] is gate [g]'s cell, its gate code and strength bucket
    packed in 16 bits (code · 1024 + bucket), under {!entry}'s range
    checks: [Invalid_argument] with {!entry}'s messages for a strength
    outside {!strength_in_range}, a code ≥ 64 or more than 16 pins. *)

val row : cache -> int -> Characterize.entry array
(** [row c cell] is the calling domain's row of [cell]: slot [bits] holds
    the entry of the cell's kind and strength bucket under the input
    values [bits] ({!Leakage_circuit.Logic.int_of_vector} order), or
    {!vacant} until a lookup stores it. The row is made on first use and
    never moves; only the library writes it. Cost: one probe. *)

val vacant : Characterize.entry
(** What a row slot holds before its entry is stored; compare with [==]. *)

val gate_entry :
  cache -> Leakage_circuit.Netlist.Repr.raw -> int -> bits:int ->
  Characterize.entry
(** [gate_entry c raw g ~bits] is {!entry} for gate [g] of the netlist
    whose storage is [raw], at its kind and strength, under the input
    values [bits] packed pin 0 first: the same slot, range checks,
    counters and entry, and [Invalid_argument] when [bits] sets a bit at
    or above the gate's arity. A hit reads the gate's fields, probes the
    row table and reads a slot, allocating nothing; a miss stores the
    entry in the slot. *)

val count_hits : int -> unit
(** [count_hits n] adds [n] to [library.hits]: a caller that reads warm
    slots of {!row} directly counts its hits once, in bulk. *)

val precharacterize :
  ?pool:Leakage_parallel.Pool.t ->
  ?kinds:Leakage_circuit.Gate.kind list -> t -> unit
(** Eagerly characterize every vector of the given kinds (default: the full
    cell library), fanning the (kind, vector) table out over [pool] when
    given. All resulting entries are adopted into the calling domain's
    cache. *)

val class_integrals :
  t -> Vth_moments.plan -> Vth_moments.tab array ->
  Vth_moments.integrals array
(** [class_integrals t plan tabs] is [Vth_moments.class_integrals plan tabs],
    computed the first time this library sees the tables' bits under the
    plan's (σ_vth_inter, σ_vth_intra) pair and handed back, the same
    arrays, on every later call (do not mutate them). The key is the
    tables' value, not an entry key, so tables from entries of other
    libraries (an incremental session's [Relib] gates) are served too.

    Cost of a hit: a hash over the tables' nodes, one probe under the
    library's mutex and a bitwise compare. A miss computes the integrals
    outside the mutex (222 exact table integrals under the paper's sigmas)
    and counts one [sensitivity.class_misses]. *)

val die_geometry : t -> Leakage_device.Variation.sigmas -> Die_geometry.t
(** [die_geometry t sigmas] is [Die_geometry.compute] at [t]'s device,
    temperature and supply, computed the first time [t] sees the sigmas'
    σ_L, σ_Tox and σ_VDD bits and handed back, the same value, on every
    later call (do not mutate it). Cost of a hit: a scan of the triples
    seen so far under the library's mutex. *)

val plan : t -> Leakage_device.Variation.sigmas -> Vth_moments.plan
(** [plan t sigmas] is [Vth_moments.plan sigmas], bit for bit, with the
    quadratures computed the first time [t] sees the sigmas'
    (σ_vth_inter, σ_vth_intra) bits and shared by every later plan of that
    pair (do not mutate them). Cost of a hit: a scan of the pairs seen so
    far under the library's mutex, and the three sigma sets. *)

val entry_count : t -> int
(** Number of entries stored in the calling domain's rows
    (characterization cost visibility). *)
