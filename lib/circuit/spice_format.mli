(** Structural SPICE-subset netlist reader.

    Reads the cell-level slice of a SPICE deck: [X] subcircuit instances
    whose cell names match the gate library ([NAND2], [INV], [AOI21], … —
    anything {!Gate.of_name} accepts). This is the common interchange shape
    for extracted standard-cell netlists; device-level elements (M, R, C)
    are out of scope and rejected with a clear diagnostic.

    Supported syntax: [*] comment lines, [$] / [;] trailing comments, [+]
    continuation lines, CRLF endings, [.subckt]/[.ends] blocks (skipped —
    cells are matched by name, not elaborated), other dot-cards ignored.
    Instance pin order is [in1 .. inN out]; supply rails ([vdd], [vss],
    [gnd], [0]) are dropped from the pin list. A device multiplier
    ([m=2]) becomes the gate's drive strength.

    The interface is inferred structurally: undriven nets are primary
    inputs, driven-but-unread nets primary outputs.

    Parsing is streaming (line at a time, flat interned storage) and
    elaboration is iterative, so arbitrarily deep netlists cannot overflow
    the stack. *)

exception Parse_error of int * string
(** Line number (1-based; 0 for whole-file diagnostics) and message. *)

val parse_string : name:string -> string -> Netlist.t

val parse_file : string -> Netlist.t
(** Parse a deck; the netlist is named after the basename. The channel is
    closed even when parsing raises. *)
