(** Domain-based worker pool with deterministic, ordered fan-out.

    A pool owns a fixed set of worker domains (OCaml 5 [Domain]s) that sleep
    between parallel regions. A parallel region hands every worker — plus the
    calling domain, which always participates — a shared atomic work queue of
    item indices; items are claimed dynamically, so uneven per-item cost
    balances itself.

    Determinism is a contract of this module, not an accident: every
    combinator assigns work by {e index}, writes results into {e index-order
    slots}, and leaves any reduction to the caller (who folds the ordered
    result array). As long as the task function depends only on its index
    (give each index its own pre-split {!Leakage_numeric.Rng} stream, never a
    shared one), results are bit-identical for every pool size — including
    the implicit sequential pool when [?pool] is omitted.

    Nested parallel regions are safe: a region submitted while the pool is
    already busy (e.g. from inside a task) simply runs inline on the calling
    domain. *)

type t
(** A fixed pool of worker domains. *)

val parse_jobs : string -> int option
(** Parse a job count as [LEAKCTL_JOBS] is parsed: surrounding whitespace
    ignored, [Some n] for a positive integer, [None] for anything else
    (garbage, empty, zero, negative). *)

val default_jobs : unit -> int
(** Number of domains to use when the caller does not say:
    {!parse_jobs}[ LEAKCTL_JOBS] if it yields a value, otherwise
    [Domain.recommended_domain_count ()]; the result is clamped into the
    supported [\[1, 128\]] range. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (the caller is the
    remaining lane). [jobs] defaults to {!default_jobs}; [jobs = 1] spawns
    nothing and every region runs inline. Raises [Invalid_argument] when
    [jobs < 1]. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent. A shut-down pool is still
    safe to pass to {!run}/{!map}: with no workers left to wake, every
    region takes the inline path and runs sequentially on the caller —
    never an error. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down afterwards,
    also on exception. *)

val run : ?pool:t -> int -> (int -> unit) -> unit
(** [run ?pool n body] evaluates [body i] once for every [i] in [\[0, n)],
    in parallel across the pool's lanes ([?pool] omitted: sequentially, in
    index order). Single-item regions ([n = 1]) run inline on the calling
    domain without waking workers. Returns when all items are done. If any
    item raises, the exception of the lowest-indexed failing item is
    re-raised after the region drains. *)

val map : ?pool:t -> int -> (int -> 'a) -> 'a array
(** [map ?pool n f] is [| f 0; f 1; ...; f (n-1) |] with the same execution
    contract as {!run}; slot [i] always holds [f i], whatever the schedule. *)

val map_array : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ?pool f a] is [map ?pool (length a) (fun i -> f a.(i))]. *)

val map_chunked :
  ?pool:t -> chunk:int -> int -> (lo:int -> hi:int -> 'a) -> 'a array
(** [map_chunked ?pool ~chunk n f] splits [\[0, n)] into contiguous ranges of
    [chunk] items (the last may be short) and evaluates [f ~lo ~hi] on each,
    returning per-chunk results in range order. Chunk boundaries depend only
    on [chunk] and [n] — never on the pool size — so a caller that folds the
    result array gets one fixed reduction tree at every domain count: the
    foundation of the bit-identical parallel/sequential guarantee. Raises
    [Invalid_argument] when [chunk < 1]. *)
