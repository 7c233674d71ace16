(** Logic-gate cells: boolean function, CMOS stage decomposition, sizing.

    Every cell decomposes into a list of primitive static-CMOS stages
    (inverter / NAND-k / NOR-k). Composite cells (AND, OR, XOR, XNOR, BUF)
    expand into several stages connected by cell-internal nets, so the DC
    solver and the characterizer see real transistor topologies — including
    stacked devices, whose "stacking effect" §4 leans on — without the
    netlist layer having to know about transistors. *)

type kind =
  | Inv
  | Buf
  | Nand of int
  | Nor of int
  | And of int
  | Or of int
  | Xor
  | Xnor
  | Aoi21  (** y = (a·b + c)'  — single-stage complex gate *)
  | Aoi22  (** y = (a·b + c·d)' *)
  | Oai21  (** y = ((a + b)·c)' *)
  | Oai22  (** y = ((a + b)·(c + d))' *)

val arity : kind -> int
(** Number of cell input pins. NAND/NOR/AND/OR support 2–4 inputs;
    constructors outside that range raise on use. *)

val name : kind -> string
(** Short cell name, e.g. "NAND2". *)

val of_name : string -> kind
(** Inverse of {!name}; raises [Invalid_argument] on unknown names. *)

val all_kinds : kind list
(** Every kind this library ships (used to precharacterize a full library). *)

val code : kind -> int
(** Small dense integer stable across a run — an allocation-free cache key
    (used by the characterization library on the estimator's hot path). *)

val of_code : int -> kind
(** Inverse of {!code}. Returns a preallocated value (no boxing per call),
    so struct-of-arrays netlist storage can decode kinds on hot paths.
    Raises [Invalid_argument] on codes no kind maps to. *)

val eval : kind -> bool array -> bool
(** Boolean function of the cell. Raises on arity mismatch. *)

val truth : int -> int
(** [truth (code kind)] is the kind's truth table: bit [b] is the output
    when the input pins read [b], pin 0 the most significant bit (the
    {!Logic.int_of_vector} order), so a gate evaluates as
    [(truth code lsr bits) land 1] — one array read, no allocation. Raises
    [Invalid_argument] on a code outside [\[0, 39\]]; a code no kind maps
    to reads 0. *)

val eval_logic : kind -> Logic.vector -> Logic.value

(** {2 Stage decomposition} *)

type network_tree =
  | Leaf of int                  (** stage input index *)
  | Series of network_tree list
  | Parallel of network_tree list
(** Series/parallel description of a pull-down network; the pull-up is its
    dual. *)

val dual : network_tree -> network_tree
(** Swap series and parallel (the complementary pull-up network). *)

val tree_depth : network_tree -> int
(** Longest series stack through the network (drives transistor sizing). *)

val tree_conducts : network_tree -> bool array -> bool
(** Whether the NMOS network conducts for the given input values. *)

type stage_kind =
  | Stage_inv
  | Stage_nand
  | Stage_nor
  | Stage_complex of network_tree
      (** arbitrary static-CMOS stage: the tree is the pull-down network
          over the stage inputs, the pull-up is its dual *)

type pin =
  | Cell_input of int   (** i-th input pin of the cell *)
  | Internal of int     (** cell-internal net *)

type stage_out =
  | Cell_output         (** this stage drives the cell's output pin *)
  | Internal_out of int (** this stage drives a cell-internal net *)

type stage = {
  stage_kind : stage_kind;
  stage_inputs : pin array;
  (** For NAND stages, index 0 is the transistor closest to the output node
      of the NMOS stack; for NOR stages, index 0 is the PMOS closest to the
      output. *)
  stage_output : stage_out;
}

type cell = {
  kind : kind;
  stages : stage array;
  internal_count : int;  (** number of cell-internal nets *)
}

val decompose : kind -> cell
(** Stage network of the cell. Raises [Invalid_argument] for unsupported
    arities. *)

val stage_eval : stage_kind -> bool array -> bool

val nmos_width : stage_kind -> int -> float
(** [nmos_width sk fan_in] is the width (µm) of each NMOS in a stage with
    [fan_in] inputs: series stacks are upsized by their depth to preserve
    drive (complex stages by the longest pull-down path). *)

val pmos_width : stage_kind -> int -> float

val transistor_count : kind -> int
(** Total transistors after decomposition (2 per stage input). *)
