(** Low-level topological ordering over a netlist's CSR storage.

    Works on the flat arrays rather than a netlist so that [Netlist] can
    use it without a dependency cycle; user code should prefer
    {!Netlist.topo_ids} and {!Netlist.levelize}. Gate [g]'s fan-in nets are
    [pins.{pin_off.{g}} .. pins.{pin_off.{g+1} - 1}] and its output is
    [out_net.{g}]. Cost: one scan of the pins to count consumers, one to
    fill them, one queue pass; five int arrays (per net, per gate twice,
    per pin, and the order). *)

type int_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val sort_flat :
  net_count:int ->
  n_gates:int ->
  source_nets:int array ->
  pin_off:int_arr ->
  pins:int_arr ->
  out_net:int_arr ->
  int array option
(** Gate indices in topological order (every gate after all gates feeding
    it), or [None] if the graph has a cycle or a gate input that is neither
    a source net nor another gate's output. *)

val levelize_flat :
  net_count:int ->
  n_gates:int ->
  source_nets:int array ->
  pin_off:int_arr ->
  pins:int_arr ->
  out_net:int_arr ->
  int array option
(** Logic depth per gate (sources at depth 0; a gate is 1 + max of its
    fan-in depths). [None] on cycles. *)
