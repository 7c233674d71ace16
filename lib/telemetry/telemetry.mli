(** Observability: named counters, gauges, and histograms, sharded per
    domain.

    The registry is process-global. A metric is registered once (usually at
    module initialization) and returns a small integer handle; recording
    through the handle touches only the calling domain's shard — a plain
    array slot, no locks, no atomics — so enabled-mode overhead is a few
    nanoseconds and parallel regions never contend. Shards are merged when a
    {!Snapshot} is taken, which also preserves the per-domain breakdown
    (that is how per-lane pool utilization and per-domain cache hit rates
    fall out for free).

    Everything is gated on one global flag: while {!enabled} is [false]
    every recording call is a single load-and-branch and allocates nothing.
    Telemetry is strictly an observer — it never influences a numeric
    result; the differential harness and [@trace-check] run with it enabled
    and assert bit-identity against untelemetered runs.

    Snapshots read other domains' shards without synchronization. Counter
    cells are immediate values, so a racy read only risks missing the very
    latest increments of a still-running region; take snapshots outside
    parallel regions for exact numbers. *)

type counter
type histogram
type gauge

val counter : string -> counter
(** [counter name] registers (or finds, by name) a monotonically increasing
    event count. Registration is idempotent: the same name always yields the
    same metric. *)

val histogram : string -> histogram
(** [histogram name] registers (or finds) a value distribution: count, sum,
    min, max, and power-of-two buckets (bucket [b] holds values in
    [(2{^b-1}, 2{^b}]], bucket 0 holds values [<= 1]). *)

val gauge : string -> gauge
(** [gauge name] registers (or finds) a point-in-time level: the merged
    value is the most recent {!set_gauge} across all domains. A gauge
    nobody has set is absent from snapshots. *)

val counter_with : string -> (string * string) list -> counter
val histogram_with : string -> (string * string) list -> histogram
val gauge_with : string -> (string * string) list -> gauge
(** [counter_with base labels] registers one member of a labeled metric
    family, e.g. [counter_with "serve.requests" ["tenant", t]]. The member
    behaves exactly like an unlabeled metric (same hot path); snapshots
    carry the base-name/labels split so renderers can group families
    ({!Snapshot.base_and_labels}). Label order does not matter — pairs are
    sorted by key; registering the same base+labels twice yields the same
    handle. Keep cardinality bounded: every distinct label set is a
    separate metric for the life of the process. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Global recording switch, off by default. Flip it outside parallel
    regions. *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe : histogram -> float -> unit
(** No-ops while disabled. [observe] drops NaN, negative, and infinite
    values (a stepped clock must not corrupt bucket/sum state) and counts
    each drop in the [telemetry.dropped_observations] counter. *)

val set_gauge : gauge -> float -> unit
(** No-op while disabled. Non-finite values are dropped and counted like
    bad observations. A set overrides any previous set from any domain (a
    global stamp orders concurrent sets). *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and observes its wall-clock duration in
    microseconds ([f] is just called when disabled). The duration is
    recorded even if [f] raises. *)

val reset : unit -> unit
(** Zero every shard of every metric (the registry itself survives). Call
    outside parallel regions. *)

val now_us : unit -> float
(** Wall-clock microseconds (also the clock {!Trace} stamps spans with). *)

module Snapshot : sig
  type hist = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : int array;  (** length {!n_buckets} *)
  }

  type t

  val n_buckets : int
  (** Bucket count of every histogram (64: power-of-two edges up to
      2{^63}, the last bucket clamps the rest). *)

  val take : unit -> t
  (** Merge all domain shards into one view, stamped with
      [Unix.gettimeofday]. *)

  val make :
    taken_at:float ->
    counters:(string * int * (int * int) list) list ->
    gauges:(string * float) list ->
    histograms:(string * hist) list ->
    meta:(string * (string * (string * string) list)) list ->
    t
  (** Rebuild a snapshot from its parts — the inverse of the entry
      accessors below; used by wire codecs. *)

  val taken_at : t -> float

  val counter_entries : t -> (string * int * (int * int) list) list
  (** Every registered counter: name, merged total, per-domain non-zero
      values (sorted by domain). *)

  val gauge_entries : t -> (string * float) list
  (** Gauges somebody has set or adjusted, with merged values. *)

  val histogram_entries : t -> (string * hist) list

  val meta_entries : t -> (string * (string * (string * string) list)) list
  (** [(full_name, (base, labels))] for every labeled metric registered so
      far, sorted by full name. *)

  val base_and_labels : t -> string -> string * (string * string) list
  (** Split a metric name into family base + label pairs; unlabeled names
      map to themselves with []. *)

  val counter_total : t -> string -> int
  (** Merged value of a counter, [0] when the name is unknown. *)

  val counter_by_domain : t -> string -> (int * int) list
  (** [(domain_id, value)] pairs, non-zero shards only, sorted by domain. *)

  val gauge_value : t -> string -> float
  (** Merged gauge level, [0.] when absent. *)

  val histogram_count : t -> string -> int
  val histogram_sum : t -> string -> float

  val histogram_stats : t -> string -> hist option

  val quantile : hist -> float -> float
  (** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) from the
      power-of-two buckets: the upper edge of the bucket where the
      cumulative count crosses [q * count], clamped into [[min, max]].
      Resolution is a factor of two — good enough for p50/p99 dashboards.
      [0.] when the histogram is empty. *)

  val diff : newer:t -> older:t -> t
  (** Windowed view: per-metric [newer - older] with every counter total,
      per-domain value, histogram count/sum/bucket clamped at zero — a
      counter reset between the two snapshots (daemon restart) yields zero
      rates, never negative ones. Gauges, histogram min/max envelopes,
      [meta], and [taken_at] are taken from [newer] (gauges are levels,
      not totals). Divide by the snapshots' [taken_at] spread for rates. *)

  val is_empty : t -> bool
  (** [true] when nothing was recorded. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable report: merged counters with per-domain breakdowns,
      gauge levels, histogram summaries (count / mean / min / max). *)

  val to_json : ?meta:(string * string) list -> t -> string
  (** JSON object:
      [{"counters": {name: total},
        "counters_by_domain": {name: {domain: value}},
        "gauges": {name: value},
        "histograms": {name: {"count", "sum", "min", "max",
                              "buckets": {exponent: count}}}}]
      Keys are JSON-escaped (labeled names contain quotes) and floats
      are written by {!Json.number}, so a non-finite one is [null]. [?meta]
      prepends a ["meta"] object of [(key, raw_json_value)] pairs —
      daemon uptime, version — without touching the metric namespace. *)
end
