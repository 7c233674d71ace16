(** Leveled structured event log: one JSON object per line.

    Events are [{"ts":<unix seconds>, "level":"info", "event":"...",
    "rid":"...", <fields>}]. The sink is process-global and writes
    serialize on a mutex — events are per-request, not per-operation, so
    contention is negligible. While disabled (the default), every logging
    call is one atomic load and a branch: no allocation, preserving the
    telemetry contract that observability off costs nothing and on
    changes no numeric result.

    Request ids propagate ambiently per domain ({!with_rid}); executor
    domains run one job at a time, so wrapping the job tags everything
    it logs. Sys-threads sharing a domain must pass ["rid"] as an
    explicit field instead. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> level option
(** Accepts ["debug"], ["info"], ["warn"]/["warning"], ["error"]. *)

type field =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

val str : string -> field
val int : int -> field
val float : float -> field

val enable : ?level:level -> out_channel -> unit
(** Install a sink (not closed by {!disable} — caller owns it) and start
    recording events at [level] (default [Info]) and above. *)

val enable_file : ?level:level -> string -> unit
(** Open [path] in append mode as the sink; {!disable} closes it. *)

val disable : unit -> unit

val enabled : level -> bool

val with_rid : string -> (unit -> 'a) -> 'a
(** Run [f] with the calling domain's ambient request id set (restored
    on exit, even on raise). *)

val info : string -> (string * field) list -> unit
val warn : string -> (string * field) list -> unit
(** [info event fields] writes one line at that level when the level
    passes the threshold. The ambient rid is added as ["rid"] unless
    [fields] already carries one. Duplicate keys are emitted as given —
    keep field names unique. *)
