(** Runtime vitals sampler: a ticker domain publishing process health as
    gauges every [interval] seconds.

    Published gauges: [runtime.gc.minor_words], [runtime.gc.major_words],
    [runtime.gc.promoted_words], [runtime.gc.heap_words],
    [runtime.gc.minor_collections], [runtime.gc.major_collections],
    [runtime.gc.compactions] (all from [Gc.quick_stat], which never forces
    a heap walk), [runtime.rss_bytes] (VmRSS from [/proc/self/status]) and
    [runtime.open_fds] (entries of [/proc/self/fd]) — the latter two are
    [0] on systems without procfs. The optional [extra] callback runs after
    each sweep on the ticker domain; use it to publish process-specific
    levels (live sessions, queue depth) with
    {!Telemetry.set_gauge}. *)

type t

val start : ?interval:float -> ?extra:(unit -> unit) -> unit -> t
(** Spawn the ticker ([interval] defaults to 1s, floored at 10ms) after
    taking one immediate sample, so gauges exist before the first tick. *)

val stop : t -> unit
(** Interrupt the current sleep, join the domain, release the pipe. *)
