(** Structural Verilog netlist writer.

    Emits one module built from Verilog gate primitives ([nand], [nor],
    [and], [or], [xor], [xnor], [not], [buf]); AOI/OAI cells are decomposed
    into an AND/OR pair feeding a NOR/NAND through a helper wire, mirroring
    {!Bench_format}. Net names are sanitized into Verilog identifiers
    (collisions resolved with numeric suffixes), so any circuit this library
    can represent exports cleanly. *)

val to_string : Netlist.t -> string
(** Render the circuit as a module named by a sanitized form of the netlist
    name. *)

val write_file : string -> Netlist.t -> unit

val sanitize_identifier : string -> string
(** The name-mangling rule used for ports and wires (exposed for tests):
    non-alphanumeric characters become ['_'], an identifier starting with a
    digit gains an ['n'] prefix, and Verilog keywords gain a ['_'] suffix. *)
