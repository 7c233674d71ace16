(** The model behind [leakctl top]: two successive telemetry snapshots in,
    rate / percentile / pressure rows out.

    Pure functions of the snapshots — the interactive renderer, the unit
    tests, and the [@obs-check] gate all share this arithmetic. Rates come
    from {!Leakage_telemetry.Telemetry.Snapshot.diff} over the snapshots'
    [taken_at] spread; per-op and per-tenant latency comes from the
    [serve.request_us{op,tenant}] family (merged across the other label
    axis). *)

type op_row = {
  op : string;
  count : int;  (** requests in the window *)
  rate : float;  (** requests / second *)
  p50_us : float;
  p99_us : float;
}

type tenant_row = {
  tenant : string;
  inflight : float;  (** from the [serve.tenant_inflight{tenant}] gauge *)
  quota : float;  (** [serve.quota] gauge; [0.] when unpublished *)
  window_requests : int;
}

type t = {
  interval_s : float;
  uptime_s : float;
  version : string;
  request_rate : float;
  rejected_rate : float;
  ops : op_row list;  (** busiest first *)
  tenants : tenant_row list;  (** sorted by tenant *)
  sessions_live : float;
  session_churn : (string * int) list;
      (** non-zero opened/attached/restored/evicted/closed in the window *)
  runtime : (string * float) list;  (** the [runtime.*] gauges *)
}

val make :
  uptime_s:float ->
  version:string ->
  newer:Leakage_telemetry.Telemetry.Snapshot.t ->
  older:Leakage_telemetry.Telemetry.Snapshot.t ->
  t
(** The window is [newer.taken_at - older.taken_at], floored at 1ms. *)

val pp : Format.formatter -> t -> unit
(** One full terminal frame (header, op table, tenant table, runtime
    line). *)

val fmt_rate : float -> string
val fmt_us : float -> string
val fmt_bytes : float -> string
