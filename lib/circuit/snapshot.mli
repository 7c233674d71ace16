(** Binary netlist snapshots ([LKN1]).

    A snapshot serializes a netlist's struct-of-arrays storage
    ({!Netlist.Repr}) into a page-aligned binary file so huge netlists skip
    parsing entirely: {!load} [mmap]s each section read-only and wraps the
    mapped arrays directly — a 10M-gate netlist is usable in milliseconds,
    with the pages faulted in lazily by the OS.

    File layout (all sections aligned to 4096 bytes):
    {v
      page 0   header: "LKN1", version, word size, endianness tag,
               section counts, the netlist's structural digest
               (Netlist.digest, 32 hex chars), declared file size, and an
               FNV-1a checksum of the header itself
      meta     netlist name + primary input / output net ids (read, not
               mapped)
      then     kind codes (u8), strengths (f64), pin CSR offsets, flat
               pins, output nets, net-name offsets, packed net-name blob
    v}

    Loading {e fails closed}: magic / version / word-size / endianness /
    checksum are checked first, then the file size is compared against the
    exact size implied by the header counts {e before} any mapping is
    dereferenced (a truncated file raises — it can never SIGBUS through a
    short mapping), and the mapped arrays always pass the cheap structural
    checks of {!Netlist.Repr.of_raw}. Snapshots are word-size and
    endianness specific (the header says so); a mismatching host refuses
    the file rather than misreading it. *)

exception Snapshot_error of string

val save : string -> Netlist.t -> unit
(** Write a snapshot. The output channel is closed even on raise. *)

val load : ?verify:bool -> string -> Netlist.t
(** Map a snapshot back into a netlist. With [verify] (default [true]) the
    full {!Netlist.validate} pass runs and the structural digest is
    recomputed and compared against the header — flipping any gate byte is
    detected. [~verify:false] keeps only the always-on fail-closed checks
    (header integrity, exact file size, index-range / arity / offset
    monotonicity validation) for millisecond loads of trusted files.
    Raises {!Snapshot_error} on any violation. *)

val digest_of_file : string -> string
(** The structural digest stamped in a snapshot's header, without mapping
    the netlist. The header checks of {!load} still apply (magic, version,
    word size, endianness, checksum, digest format) and raise
    {!Snapshot_error}. Matches [Netlist.digest] of the loaded netlist for
    an intact file. *)
