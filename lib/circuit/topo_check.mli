(** Low-level topological ordering over pin accessors.

    Works on accessor functions rather than a netlist so that [Netlist]
    can use it without a dependency cycle, feeding pins straight out of its
    struct-of-arrays storage; user code should prefer {!Netlist.topo_ids}
    and {!Netlist.levelize}. *)

val sort_flat :
  net_count:int ->
  n_gates:int ->
  source_nets:int array ->
  fanin_count:(int -> int) ->
  fanin:(int -> int -> int) ->
  gate_out:(int -> int) ->
  int array option
(** Gate indices in topological order (every gate after all gates feeding
    it), or [None] if the graph has a cycle or a gate input that is neither
    a source net nor another gate's output. *)

val levelize_flat :
  net_count:int ->
  n_gates:int ->
  source_nets:int array ->
  fanin_count:(int -> int) ->
  fanin:(int -> int -> int) ->
  gate_out:(int -> int) ->
  int array option
(** Logic depth per gate (sources at depth 0; a gate is 1 + max of its
    fan-in depths). [None] on cycles. *)
