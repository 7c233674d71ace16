(** Result export: CSV and aligned-table rendering of estimation results.

    Downstream flows (spreadsheets, plotting scripts) consume the CSV form;
    the pretty printer backs the CLI. Currents are exported in nano-amperes,
    percentages as plain numbers. *)

val per_gate_csv : Leakage_circuit.Netlist.t -> Estimator.result -> string
(** One row per gate:
    [gate_id,cell,output_net,vector,isub_nA,igate_nA,ibtbt_nA,total_nA,
    no_loading_total_nA,loading_shift_percent]. *)

val pp_per_gate :
  ?limit:int ->
  Format.formatter -> Leakage_circuit.Netlist.t -> Estimator.result -> unit
(** Human-readable per-gate table, heaviest leakers first ([limit] rows,
    default 20). *)

val write_file : string -> string -> unit
(** [write_file path contents]. *)
