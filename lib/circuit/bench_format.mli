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
    sizing bit for bit: a strength is printed with [%g] when that reads
    back to the same float and with [%.17g] otherwise.

    The reader is one byte scanner, the same for {!parse_string} and
    {!parse_file}. It walks each line once, left to right, finding tokens
    by index in its input buffer and hashing each name as it passes; it
    interns each signal name once (names lie back to back in one blob,
    found by an open-addressing table) and stores signals and declarations
    as records of 32-bit fields in [Bytes], which the GC does not scan.
    Those tables start small and double as names and declarations arrive,
    so blank lines, comments and whitespace cost no table space. Nothing
    of a line is stored before its end is read, so a line a chunk cuts is
    scanned again, whole. Elaboration is iterative — deep gate chains
    cannot overflow the stack — and builds no per-gate list. CRLF line
    endings are accepted (a [\r] is a blank), as is a final line without
    a newline. Input longer than 2{^31} − 1 bytes is rejected with
    [Parse_error (0, _)], which keeps every stored field in 32 bits.

    A line is an [INPUT] or [OUTPUT] declaration when the keyword (in any
    case) is followed by blanks and then [(]; it must end with [)]. A line
    that starts with the keyword but has no [(] after it is an assignment
    if it holds [=] ([input_sel = NAND(a, b)]), and malformed otherwise
    ([INPUT a]), as is [INPUT(a]. *)

exception Parse_error of int * string
(** Line number (1-based; 0 for whole-file diagnostics) and message. The
    reader's only error for malformed input: whatever text
    {!parse_string} is given, it returns a netlist or raises this. *)

val parse_string : name:string -> string -> Netlist.t
(** Parse [.bench] text. Raises {!Parse_error} on malformed input —
    including conflicting declarations of one net name (a duplicated
    [INPUT] or [OUTPUT], a redefined gate target, or a gate target
    shadowing a declared input), an undefined signal, a combinational
    cycle, a strength annotation that is not finite and positive, an empty
    file (no INPUT, OUTPUT or gate line at all) and input past 2{^31} − 1
    bytes. *)

val parse_file : string -> Netlist.t
(** Parse a file; the netlist is named after the basename. Reads the file
    in fixed-size chunks and never holds all of it (a line longer than the
    buffer grows the buffer), so any readable file works, seekable or not;
    the input channel is closed even when parsing raises. Raises
    {!Parse_error} as {!parse_string} does, and [Sys_error] when the file
    cannot be read. *)

val to_string : Netlist.t -> string
(** Render a netlist as [.bench] text (combinational: no DFF lines; pseudo
    PIs/POs appear as INPUT/OUTPUT). Re-parsing yields an equivalent
    circuit, every strength bit for bit. *)

val write_file : string -> Netlist.t -> unit
