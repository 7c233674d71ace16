(** Gate-level netlists.

    A netlist is a DAG of gate instances over single-driver nets. Primary
    inputs drive nets directly; every other net is driven by exactly one
    gate output. Flip-flops from sequential benchmarks are modeled as a
    pseudo primary output (the D pin) plus a pseudo primary input (the Q
    net) — the standard reduction for DC leakage analysis, which only sees
    a combinational snapshot.

    Storage is int-indexed struct-of-arrays: gate kinds, strengths, pin
    lists (CSR) and output nets live in flat [Bigarray]s, net names in one
    packed blob — no per-gate heap objects, so million-gate netlists fit in
    a few flat allocations and can be snapshotted to (and mmapped from)
    disk. Gates are read only through the int-indexed accessors below. *)

type net = int
(** Dense net identifier in [\[0, net_count)]. *)

type t
(** Immutable netlist (internal lookup caches are built lazily). *)

val name : t -> string

val net_count : t -> int
val inputs : t -> net array
val outputs : t -> net array
val net_name : t -> net -> string

val add_net_name : Buffer.t -> t -> net -> unit
(** Append {!net_name} to a buffer, copying the stored bytes without
    building a string (what the [.bench] writer does per pin). *)

val gate_count : t -> int
val transistor_count : t -> int

(** {2 Int-indexed access (the hot-path API)}

    Gates are identified by dense ids in [\[0, gate_count)]. All accessors
    are allocation-free except {!gate_kind} (which returns preallocated
    kind values) and raise [Invalid_argument] on out-of-range ids. *)

val gate_kind : t -> int -> Gate.kind

val gate_strength : t -> int -> float
(** Drive strength: every transistor width in the cell is scaled by this
    factor (1.0 = minimum size). Leakage scales with it too, which is why
    the paper characterizes per "gate type, size, loading". *)

val gate_arity : t -> int -> int
(** Number of input pins. *)

val gate_pin : t -> int -> int -> net
(** [gate_pin t g p] is the net on pin [p] of gate [g]. *)

val gate_out : t -> int -> net

val iter_pins : t -> int -> (int -> net -> unit) -> unit
(** [iter_pins t g f] calls [f pin net] for every input pin in pin order. *)

val driver_id : t -> net -> int
(** Id of the gate driving a net, or [-1] for a primary input. O(1) after
    the first call. *)

val iter_fanout : t -> net -> (int -> unit) -> unit
(** Iterate the reading gates of a net in ascending (gate, pin) order —
    one call per pin, so a gate with two pins on the net is seen twice. *)

val topo_ids : t -> int array
(** Gate ids in topological order; computed once and cached (do not
    mutate). Raises [Failure] on a cyclic netlist. *)

val levelize : t -> int array option
(** Logic depth per gate id (primary inputs at depth 0; a gate is 1 + the
    deepest of its fan-in nets), or [None] on a cyclic netlist. *)

val warm : t -> unit
(** Force the lazily built lookup caches ({!driver_id}, the fanout CSR
    behind {!iter_fanout}, and {!topo_ids}) to be
    built now. The caches are initialized lazily by a benign
    single-threaded race; call this before handing the netlist to multiple
    domains so no concurrent lazy initialization can occur. *)

val is_input : t -> net -> bool
val is_output : t -> net -> bool

val validate : t -> (unit, string) result
(** Structural checks: single driver per net, arities match, no dangling
    nets, acyclicity. Builders run this automatically. The topological
    order the acyclicity check computes is kept as {!topo_ids}'s cache. *)

val with_kinds_strengths :
  t -> kinds:Gate.kind array -> strengths:float array -> t
(** [with_kinds_strengths t ~kinds ~strengths] is [t] with every gate's
    kind and strength replaced by the dense-id arrays; pins, output nets
    and net numbering are shared with [t] (unlike a rebuild through
    {!Builder}). Used to materialize the current state of an incremental
    edit session as a plain netlist. Raises [Invalid_argument] on length
    mismatch or a strength that is not finite and positive, and [Failure]
    if a kind change alters arity. *)

val digest : t -> string
(** Stable structural digest: 32 lowercase hex characters, identical across
    process runs and platforms. The digest is {e canonical} — independent of
    construction order (input/gate declaration order, net numbering, the
    internal net names a builder invents, and the netlist's own name).
    Primary inputs are identified by their net names (the circuit's
    interface); every driven net purely by the shape of its fan-in cone:
    gate kind, drive strength, and fan-in labels in pin order. Two netlists
    share a digest iff they describe the same circuit at the same interface
    — which is what keys the warm-session registry of [leakctl serve].
    Cost per call: two seeded FNV-1a passes, run side by side in the same
    loops over the cached topological order and one set of label arrays
    made for the call; a gate's kind and strength are hashed once per run
    of equal strengths of its kind, and each label multiset sorts by one
    16-bit bucket pass. Not cached itself. *)

type stats = {
  n_gates : int;
  n_nets : int;
  n_inputs : int;
  n_outputs : int;
  n_transistors : int;
  max_fanout : int;
  avg_fanout : float;
  levels : int;
  kind_histogram : (string * int) list;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** {2 Construction} *)

module Builder : sig
  type netlist := t

  type t

  val create : ?size:int -> string -> t
  (** [size] is a hint, like [Hashtbl.create]'s: the expected number of
      nets, gates and pins, which the builder's buffers start at. *)

  val input : ?name:string -> t -> net
  (** Declare a primary input and return its net. *)

  val gate : ?name:string -> ?strength:float -> t -> Gate.kind -> net array -> net
  (** Instantiate a gate; returns its output net. [name] names the output
      net; [strength] (default 1.0, must be finite and positive) scales
      the cell's transistor widths. Raises [Invalid_argument] on a bad
      strength, an arity mismatch or an unknown input net. *)

  val mark_output : t -> net -> unit
  (** Flag an existing net as a primary output. *)

  val net_count : t -> int
  val gate_count : t -> int

  val finish : t -> netlist
  (** Freeze. Raises [Failure] if {!validate} fails. *)
end

(** {2 Raw struct-of-arrays representation}

    Internal exchange format for the binary snapshot layer ({!Snapshot}),
    and what the simulation and estimator kernels read. The arrays are the
    netlist's actual storage: treat them as immutable. Not a stable public
    API. *)

module Repr : sig
  type int_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  type f64_arr =
    (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  type byte_arr =
    (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
  type char_arr =
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  type raw = {
    r_name : string;
    r_net_count : int;
    r_kind_code : byte_arr;      (* n_gates *)
    r_strength : f64_arr;        (* n_gates *)
    r_pin_off : int_arr;         (* n_gates + 1, CSR offsets into pins *)
    r_pins : int_arr;            (* flat fan-in nets in pin order *)
    r_out_net : int_arr;         (* n_gates *)
    r_inputs : int array;
    r_outputs : int array;
    r_name_off : int_arr;        (* net_count + 1 *)
    r_name_blob : char_arr;      (* packed net names *)
  }

  val to_raw : t -> raw
  (** The netlist's storage, shared (the arrays are not copied): one small
      record per call, so hot loops read the CSR arrays directly. *)

  val drivers : t -> int_arr
  (** The cache behind {!driver_id}: the driving gate id per net, [-1] for
      a net no gate drives. Built on the first call ({!warm} builds it). *)

  val of_raw : ?validate:bool -> raw -> t
  (** Rebuild a netlist around the given arrays (shared, not copied).
      Always performs the cheap O(n) structural checks (lengths, offset
      monotonicity, index ranges, kind codes, arities, strengths) and
      raises [Failure] on any violation — a corrupt snapshot must fail
      closed, never index out of bounds later. With [validate] (default
      [true]) additionally runs the full {!Netlist.validate} pass
      (single-driver and acyclicity). *)
end
