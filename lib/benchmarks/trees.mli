(** Regular structural circuits with exactly known functions: parity trees,
    decoders and multiplexer trees. Useful as verifiable workloads (the test
    suite checks them exhaustively) and as extreme-topology stress cases for
    the loading estimator — parity trees are XOR-dense, decoders are
    fanout-heavy. *)

val parity : ?width:int -> unit -> Leakage_circuit.Netlist.t
(** Balanced XOR tree computing odd parity of [width] inputs (default 16).
    One output. *)

val parity_reference : bool array -> bool

val chain : ?stages:int -> ?tap_every:int -> unit -> Leakage_circuit.Netlist.t
(** Inverter chain [stages] deep (default 1024) — the depth stress case for
    anything that walks fanout cones: a recursive walk overflows the stack
    on chains a few tens of thousands of gates deep. With [tap_every > 0]
    (default 0 = pure INV chain), every [tap_every]-th stage is instead a
    NAND2 "gateway" whose second pin is a dedicated primary input
    [tap{i}]; holding a tap at 0 (a controlling value) pins that gateway's
    output, so an all-zero pattern cuts the chain into independent
    [tap_every]-stage segments. Inputs: [head], then the taps in stage
    order. One output (the last stage). *)

val decoder : ?select_bits:int -> unit -> Leakage_circuit.Netlist.t
(** [select_bits]-to-2^[select_bits] one-hot decoder (default 4): every
    output is the AND of the select literals; the select nets fan out to
    half the outputs each — a worst-case loading pattern. *)

val decoder_reference : select_bits:int -> int -> int
(** One-hot output index for a select value (identity; for test symmetry). *)

val mux_tree : ?select_bits:int -> unit -> Leakage_circuit.Netlist.t
(** 2^[select_bits]-to-1 multiplexer built from 2:1 mux cells (default 3).
    Inputs: data d0..d{2^k-1} then selects s0..s{k-1} (s0 is the least
    significant select). *)

val mux_reference : select_bits:int -> data:int -> select:int -> bool
(** Bit [select] of the [data] word. *)
