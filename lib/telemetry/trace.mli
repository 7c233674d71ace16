(** Span tracing in Chrome trace-event format.

    Spans are nested begin/end scopes recorded per domain into
    domain-local buffers (no locks, no cross-domain traffic on the hot
    path) and flushed into one JSON file loadable by Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing]. Each domain appears
    as its own named track ([tid] = domain id), so a pool region shows one
    lane of work per worker domain.

    Tracing has its own switch, independent of {!Telemetry.enabled}:
    {!start} clears the buffers and begins recording, {!stop} ends it, and
    {!write}/{!to_json} serialize whatever was recorded. Start and stop
    outside parallel regions. While tracing is off, {!with_span} is a
    flag check that calls the thunk directly. *)

val start : unit -> unit
(** Clear all recorded events, reset the trace clock to "now", and begin
    recording. *)

val stop : unit -> unit
(** Stop recording; events already recorded are kept for {!write}. *)

val with_span : ?cat:string -> ?args:(string * string) list ->
  string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a complete ("ph":"X") event on the
    calling domain's track. The span closes even if [f] raises. [cat] is
    the Chrome category (defaults to ["app"]); [args] become the event's
    [args] object, shown when the span is selected. *)

val event_count : unit -> int
(** Events recorded since {!start} (all domains). *)

val to_json : unit -> string
(** The Chrome trace: [{"traceEvents": [...], "displayTimeUnit": "ms"}],
    with a [thread_name] metadata record per domain track. *)

val write : string -> unit
(** [write path] saves {!to_json} to [path]. *)
