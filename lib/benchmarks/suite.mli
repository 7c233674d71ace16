(** The paper's benchmark suite (§6 / Fig 12): six ISCAS89-profile circuits,
    the 8-bit ALU and the 8×8 multiplier. *)

type entry = {
  label : string;        (** name used in Fig 12's x-axis *)
  build : unit -> Leakage_circuit.Netlist.t;
}

val all : entry list
(** s838, s1196, s1423, s5378, s9234, s13207, alu88, mult88 — in the
    paper's plotting order. *)

val names : string list

val find : string -> entry
(** Raises [Failure] naming the label and listing {!names} when no entry
    has that label. *)

type run = {
  label : string;
  gates : int;
  loaded : Leakage_spice.Leakage_report.components;
  (** mean loading-aware totals over the sampled vectors *)
  baseline : Leakage_spice.Leakage_report.components;
  (** mean sum-of-isolated totals *)
  shift_percent : float;
  (** loading shift of the mean total, % *)
}

val estimate_all :
  ?pool:Leakage_parallel.Pool.t ->
  ?entries:entry list ->
  ?vectors:int ->
  ?seed:int ->
  Leakage_core.Library.t ->
  run array
(** Estimate every suite circuit (default {!all}) under [vectors] random
    input vectors (default 10, [seed] default 7), one result per entry in
    order. Circuits fan out across [pool] when given; each circuit draws its
    vectors from its own pre-split RNG stream, so the results are
    bit-identical at any pool size. Raises [Invalid_argument] when
    [vectors] is not positive. *)
