(** Blocking client for the [leakctl serve] protocol, with a
    fault-tolerance policy layer.

    One {!t} wraps one connected socket (plus the endpoint list to fall
    back on) and performs strict request/response round-trips; it is not
    thread-safe — use one client per thread.

    {2 Poisoning}

    The protocol is a strict request/reply stream with no framing
    recovery: once a reply is half-read (timeout, truncation, undecodable
    frame) the stream position is unknown, and a second request could read
    the first request's late reply as its own answer. So any wire-level
    failure {e poisons} the connection — with no retry budget every later
    call raises {!Poisoned} instead of silently desynchronizing; with
    retries configured the client reconnects on a fresh socket instead of
    reusing the broken one.

    {2 Retry policy}

    A {!policy} gives the client a retry budget. Transport failures
    (connect refused, timeout, server gone mid-reply) back off
    exponentially with jitter and reconnect — cycling through the endpoint
    list, so a client pointed at two daemons sharing a [--peer-dir] rides
    over a kill of either. Retriable error replies ([Over_quota],
    [Shutting_down]) sleep for [max backoff hint] using the server's
    retry-after hint, then resend. Non-retriable errors raise immediately.

    The default policy has [retries = 0]: plain strict behavior, every
    failure surfaces (plus poisoning). *)

exception Server_error of Protocol.error_code * string
(** The server answered with an [Error] frame.
    [Protocol.retriable] classifies the code. The connection is fine. *)

exception Poisoned of string
(** Raised by {!rpc} when the connection was poisoned by an earlier wire
    failure and there is no retry budget to reconnect with. The message
    says what broke the stream. *)

type endpoint = Unix_path of string | Tcp of string * int

val endpoint_name : endpoint -> string

type policy = {
  retries : int;  (** extra attempts after the first (0 = strict) *)
  backoff_ms : float;  (** first backoff; doubles per attempt *)
  max_backoff_ms : float;  (** backoff cap *)
  timeout_ms : float option;  (** per-RPC reply deadline; [None] = wait *)
  jitter : float;  (** +/- fraction of the backoff, e.g. 0.25 *)
}

val default_policy : policy
(** [{ retries = 0; backoff_ms = 25.0; max_backoff_ms = 1000.0;
      timeout_ms = None; jitter = 0.25 }] *)

type stats = {
  retries : int;  (** attempts beyond the first, all causes *)
  reconnects : int;  (** successful re-connects after the first connect *)
  over_quota_waits : int;  (** backoffs honoring an [Over_quota] reply *)
  timeouts : int;  (** RPCs that hit the reply deadline *)
}

type t

val connect : ?policy:policy -> ?seed:int -> endpoint list -> t
(** Connect to the first endpoint (of one or more) that answers, retrying
    per [policy]. [seed] makes the backoff jitter deterministic (for
    reproducible benches); reconnects start from the endpoint that last
    worked. Raises the last connect error ([Unix.Unix_error], or [Failure]
    for an unresolvable host) when every endpoint refuses through the
    whole retry budget. *)

val connect_unix : ?policy:policy -> string -> t
(** Connect to a Unix-domain socket path. Raises [Unix.Unix_error]. *)

val connect_tcp : ?policy:policy -> ?host:string -> int -> t
(** Connect to a TCP port ([host] defaults to ["127.0.0.1"]). The host is
    resolved with [getaddrinfo], so names like ["localhost"] work; an
    unresolvable host raises [Failure], not a raw socket error. *)

val close : t -> unit
(** Close the connection (idempotent). Live server sessions survive — they
    belong to the registry, not the connection. *)

val policy : t -> policy
val stats : t -> stats

val current_endpoint : t -> endpoint option
(** The endpoint of the live connection ([None] when disconnected or
    poisoned) — what a fault-injection harness kills to force a failover. *)

val rpc : t -> Protocol.request -> Protocol.response
(** One request/reply exchange under the policy (see the module preamble).
    Raises {!Poisoned} on a poisoned zero-retry client;
    {!Wire.Timeout} / {!Wire.Truncated} / {!Wire.Bad_frame} /
    [End_of_file] / [Unix.Unix_error] when the transport fails beyond the
    retry budget. Does NOT turn [Error] frames into exceptions (beyond
    retrying retriable ones) — the typed helpers below do. *)

type opened = {
  session : int;
  digest : string;
  status : Protocol.session_status;
  gates : int;
}

val ping : t -> unit

val open_session :
  t ->
  ?tenant:string ->
  ?device:string ->
  ?temp_c:float ->
  ?pattern:string ->
  circuit:Protocol.circuit_spec ->
  unit ->
  opened
(** Defaults: [tenant "anon"], [device "d25"], [temp_c 25.0],
    [pattern ""]. *)

val apply_batch : t -> session:int -> Protocol.edit list -> int
(** Returns the number of cone groups the batch partitioned into. *)

val query :
  t ->
  session:int ->
  ?refresh:bool ->
  unit ->
  Leakage_spice.Leakage_report.components
  * Leakage_spice.Leakage_report.components
(** [(loaded, baseline)] totals; [refresh] defaults to [false]. *)

val checkpoint : t -> session:int -> int
(** Returns the new checkpoint id. *)

val rollback : t -> session:int -> checkpoint:int -> unit
val close_session : t -> session:int -> unit

type snapshot_report = {
  uptime_s : float;
  version : string;
  snapshot : Leakage_telemetry.Telemetry.Snapshot.t;
}

val metrics_snapshot : t -> snapshot_report
(** The full typed snapshot — what [leakctl top] diffs between polls. *)

val shutdown_server : t -> unit
(** Ask the server to drain and exit; returns once it acknowledges. *)

(** {2 Failover sessions}

    A {!Failover.session} remembers how it was opened (tenant, circuit
    spec, corner), so a dead daemon is survivable: when a session-scoped
    op fails with [Unknown_session] — the id died with the daemon — or
    with a transport error that outlived the rpc layer's own retries, the
    wrapper re-opens the same digest (landing on whichever endpoint
    answers, warm from a shipped checkpoint when the daemons share a
    [--peer-dir]) and replays the op against the new id.

    Replay is safe because every protocol edit {e sets} absolute state
    (resize to [s], retype to [k], set input [i] to [v]) — re-applying a
    batch the dead daemon already checkpointed converges to the same
    state. *)

module Failover : sig
  type session

  val open_session :
    t ->
    ?tenant:string ->
    ?device:string ->
    ?temp_c:float ->
    ?pattern:string ->
    circuit:Protocol.circuit_spec ->
    unit ->
    session

  val session_id : session -> int
  (** The current wire session id (changes across re-opens). *)

  val status : session -> Protocol.session_status
  (** Status of the most recent (re-)open. *)

  val reopens : session -> int
  (** Times the wrapper had to re-open — failovers survived. *)

  val client : session -> t

  val apply : session -> Protocol.edit list -> int

  val query :
    session ->
    ?refresh:bool ->
    unit ->
    Leakage_spice.Leakage_report.components
    * Leakage_spice.Leakage_report.components

  val close_session : session -> unit
end
