(** Logic levels of a netlist's gates. The topological order itself (step 1
    of the paper's Fig-13 algorithm) is {!Netlist.topo_ids}. *)

val levels : Netlist.t -> int array
(** Logic depth per gate id (primary inputs at depth 0). *)

val net_levels : Netlist.t -> int array
(** Logic depth per net (depth of its driver; 0 for primary inputs). *)
