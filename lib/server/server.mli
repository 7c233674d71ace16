(** The [leakctl serve] daemon: estimation-as-a-service on a Unix-domain
    socket (and optionally a loopback TCP port).

    One daemon owns one {!Registry} of warm sessions, one {!Scheduler} of
    executor domains, and one shared {!Leakage_parallel.Pool} for intra-batch
    cone groups. Connections are handled by lightweight reader threads: each
    reads one {!Wire} frame, decodes the {!Protocol} request, and either
    answers inline (ping, metrics snapshot) or routes the job through the
    scheduler and waits for its reply. Per-request latency — decode, queue
    wait and execution — lands in the labeled [serve.request_us{op,tenant}]
    histogram family, one series per op; the [metrics-snapshot] op returns
    the full typed snapshot with the daemon's uptime and version.

    Every request gets a daemon-unique request id ([c<conn>-<seq>]) that
    tags its structured log lines ({!Leakage_telemetry.Log}), its executor
    spans, and — above [slow_us] — a [request.slow] event. The optional
    HTTP sidecar serves [GET /metrics] (Prometheus exposition) and
    [GET /healthz] (drain state); a runtime sampler publishes GC / RSS /
    fd / pool / session gauges while the daemon runs. All of it observes
    and never steers: with telemetry on or off, wire replies are
    bit-identical ([@obs-check] enforces this).

    Shutdown is graceful by construction: {!request_stop} (safe to call from
    a signal handler — it only flips an atomic and writes one byte to a
    self-pipe) makes {!run} stop accepting, answer new work with a retriable
    [Shutting_down] error, drain every queued job, flush all session
    checkpoints to disk, close the sockets and shut the pool down before
    returning. *)

type t

val create :
  ?port:int ->
  ?http_port:int ->
  ?executors:int ->
  ?jobs:int ->
  ?quota:int ->
  ?max_sessions:int ->
  ?state_dir:string ->
  ?peer_dir:string ->
  ?tenant_rate:float ->
  ?tenant_burst:float ->
  ?version:string ->
  ?slow_us:float ->
  ?sample_interval:float ->
  socket:string ->
  unit ->
  t
(** Bind the listeners and spin up the scheduler and pool — but accept
    nothing until {!run}. [jobs] sizes the shared pool
    ({!Leakage_parallel.Pool.default_jobs} when omitted; [1] means no
    worker domains), [executors] the scheduler (default 2), [quota] the
    per-tenant in-flight cap (default 8), [max_sessions] the registry's
    live-session cap (default 8). Raises [Unix.Unix_error] when the socket
    cannot be bound.

    [peer_dir] is a directory shared with other daemons: checkpoints are
    mirrored into it after every applied batch, and an open that misses the
    local state adopts the newest matching peer checkpoint — see
    {!Registry.create} for the failover semantics.

    [tenant_rate] turns per-tenant token-bucket admission on: each tenant
    sustains [tenant_rate] requests/second with bursts up to [tenant_burst]
    (default [max 1 rate]). Rejections answer with a retriable [Over_quota]
    error carrying a retry-after hint in milliseconds, and the select loop
    ticks every 250ms to refill buckets and publish per-tenant
    [serve.tenant_tokens{tenant}] gauges. Without [tenant_rate], only the
    in-flight [quota] gates admission and the loop blocks until work
    arrives, exactly as before.

    [http_port] additionally binds the read-only observability sidecar on
    loopback ([0] picks an ephemeral port — read it back with
    {!http_port}): [GET /metrics] answers the Prometheus exposition of a
    live snapshot, [GET /healthz] a JSON health probe that turns [503
    draining] the moment shutdown starts. [version] is echoed in metrics
    replies and [/healthz] (default ["dev"]). Requests slower than
    [slow_us] microseconds log a [request.slow] event (default [infinity]
    — off). [sample_interval] paces the runtime-vitals sampler started by
    {!run} when telemetry is enabled (default 1s). *)

val http_port : t -> int option
(** The sidecar's bound port ([None] without [http_port]); resolves an
    ephemeral bind. *)

val uptime_s : t -> float
(** Seconds since {!create}. *)

val run : t -> unit
(** Accept and serve until {!request_stop}; performs the graceful shutdown
    sequence before returning. Call at most once. *)

val request_stop : t -> unit
(** Ask {!run} to shut down gracefully. Async-signal-safe and idempotent. *)

val running : t -> bool
(** [true] between {!run} starting to accept and the shutdown completing —
    what a test harness polls instead of sleeping. *)
