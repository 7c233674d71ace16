(** Multi-tenant request scheduler: per-session serialization, cross-session
    parallelism, per-tenant admission control.

    The scheduler owns a fixed set of {e executor domains}, each with its own
    FIFO queue. A job is routed by a stable hash of its session key, so every
    request for one session lands on one queue — that alone serializes a
    session without any per-session lock, while sessions hashed to different
    executors run concurrently.

    Digest-affinity is also what keeps characterization caches warm: a
    session always re-estimates on the same executor domain, whose
    {!Leakage_core.Library} DLS cache it already filled (the publish-once
    snapshot covers the cross-executor case).

    Admission control is per tenant and two-layered. A {e token bucket}
    ([rate] tokens per second, capacity [burst], starting full) charges one
    token per request: a tenant may burst up to [burst] requests
    back-to-back, then sustain [rate] requests per second. Buckets refill
    lazily against the caller-supplied clock (every {!try_admit} and the
    server loop's {!tenant_tokens} tick). On top of that, the in-flight cap
    [quota] bounds {e concurrency}: at most [quota] requests queued or
    running per tenant, whatever the bucket holds. A rejection carries a
    [retry_after_s] hint — for a rate rejection, exactly how long until the
    bucket holds a whole token again — which the server forwards in the
    retriable [Over_quota] error frame so a well-behaved client sleeps just
    long enough instead of hammering. *)

type t

type admission =
  | Admitted  (** one token charged, one in-flight slot reserved *)
  | Rejected of { retry_after_s : float; reason : string }

val create :
  ?executors:int -> ?quota:int -> ?rate:float -> ?burst:float -> unit -> t
(** [executors] defaults to 2, [quota] (per-tenant in-flight cap) to 8.
    [rate] is the per-tenant sustained admission rate in requests/second
    (default [infinity] — token buckets off); [burst] the bucket capacity
    (default [max 1 rate] when the rate is finite). Raises
    [Invalid_argument] when executors/quota are below 1, [rate <= 0], or
    [burst < 1]. *)

val executors : t -> int

val quota : t -> int
(** The per-tenant in-flight cap this scheduler admits against. *)

val rate : t -> float
(** Sustained per-tenant admission rate (tokens/second; [infinity] = off). *)

val burst : t -> float
(** Token-bucket capacity. *)

val rate_limited : t -> bool
(** [true] iff a finite [rate] was configured. *)

val queue_depth : t -> int
(** Jobs queued (not yet running) across all executors, at this instant —
    an occupancy gauge, racy by nature. *)

val tenant_inflight : t -> (string * int) list
(** Tenants with at least one request in flight and their counts, sorted
    by tenant. *)

val tenant_tokens : ?now:float -> t -> (string * float) list
(** Refill every known tenant's bucket against [now] (default
    [Unix.gettimeofday ()]) and report the levels, sorted by tenant — what
    the server publishes as [serve.tenant_tokens] gauges on each select-loop
    tick. Empty before any tenant has been seen. *)

val try_admit : ?now:float -> t -> string -> admission
(** [try_admit t tenant] refills the tenant's bucket against [now], then
    charges one token and reserves one in-flight slot — or rejects with a
    retry-after hint when the tenant is out of tokens or at its in-flight
    quota (nothing is charged or reserved). Always pair an [Admitted] with
    {!release}. *)

val release : t -> string -> unit
(** Release the in-flight slot of one admitted request (tokens are spent,
    not returned — the bucket meters arrival rate, not completion). *)

val submit : t -> ?rid:string -> key:string -> (unit -> unit) -> unit
(** Enqueue a job on the executor owning [key] (stable hash). Jobs on one
    key run in submission order, one at a time. [rid] sets the executor
    domain's ambient request id ({!Leakage_telemetry.Log.with_rid}) around
    the job, so its log lines and spans carry the id. Raises
    [Invalid_argument] after {!shutdown}. A job must not raise; exceptions
    escaping it are caught and dropped after counting
    [serve.executor_job_errors]. *)

val shutdown : t -> unit
(** Drain: executors finish every queued job, then stop and join. Idempotent. *)
