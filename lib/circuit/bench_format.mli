(** ISCAS89 [.bench] netlist reader / writer.

    The paper evaluates on ISCAS89 circuits; this module lets real [.bench]
    files drop in when available (the repository itself ships synthetic
    profile-matched circuits — see [Leakage_benchmarks.Iscas]).

    Sequential elements ([DFF]) are cut: the flip-flop output becomes a
    pseudo primary input and its data pin a pseudo primary output, which is
    the standard combinational reduction for static leakage analysis.

    Gates wider than the cell library's 4-input limit are decomposed into
    balanced AND/OR trees feeding a final gate of the requested polarity.

    Drive strengths are serialized as trailing comments
    ("y = NAND(a, b)  # strength=2") — plain ISCAS89 files parse unchanged
    (everything at strength 1), and files written here round-trip their
    sizing.

    The reader is {e streaming}: input is consumed one line at a time and
    interned into flat buffers, never holding the file (or a list of its
    lines) in memory, and elaboration is iterative — deep gate chains
    cannot overflow the stack. CRLF line endings are accepted (a trailing
    [\r] is stripped), as is a final line without a newline. *)

exception Parse_error of int * string
(** Line number (1-based; 0 for whole-file diagnostics) and message. *)

val parse_string : name:string -> string -> Netlist.t
(** Parse [.bench] text. Raises {!Parse_error} on malformed input —
    including conflicting declarations of one net name: a duplicated
    [INPUT] or [OUTPUT], a redefined gate target, or a gate target
    shadowing a declared input — on an empty file (no INPUT, OUTPUT or
    gate line at all), and [Failure] if the described circuit fails
    validation. *)

val parse_file : string -> Netlist.t
(** Parse a file; the netlist is named after the basename. Counts the
    file's lines in one buffered pass, then parses it line-at-a-time (so
    the path must name a seekable file); the input channel is closed even
    when parsing raises. *)

val parse_lines : name:string -> (unit -> string option) -> Netlist.t
(** Core streaming entry point: [parse_lines ~name next] pulls lines from
    [next] ([None] = end of input) — the producer for {!parse_file} and
    {!parse_string}, exposed so other front-ends can feed pre-split
    input. Unlike those two, it cannot count its input's lines first, so
    its tables grow by doubling instead of starting at their final
    size. *)

val to_string : Netlist.t -> string
(** Render a netlist as [.bench] text (combinational: no DFF lines; pseudo
    PIs/POs appear as INPUT/OUTPUT). Re-parsing yields an equivalent
    circuit. *)

val write_file : string -> Netlist.t -> unit
