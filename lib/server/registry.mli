(** Warm-session registry: the daemon's map from netlist digest to a live
    {!Leakage_incremental.Incremental} session.

    Sessions are keyed by [(Netlist.digest, device corner, temperature)] —
    never by how the client described the circuit — so a second client
    opening the same netlist (by built-in name, or byte-different [.bench]
    text describing the same structure) attaches to the already-warm session
    instead of paying for characterization and a cold estimate again.

    The registry holds at most [max_sessions] live sessions; opening one
    more evicts the least-recently-used {e idle} session (no queued or
    running request), writing its state to [state_dir] first. An evicted —
    or killed — session restores from that checkpoint on the next open:
    the base netlist is rebuilt from the stored spec, the current gate
    kinds/strengths and input vector are replayed onto it, and a fresh
    session opens in that exact state. What does {e not} survive eviction
    is the undo log: protocol checkpoints taken before an eviction are
    gone, and rolling back to one fails with [Unknown_checkpoint].

    Thread safety: the registry's maps are mutex-protected and may be used
    from any thread or domain. Sessions themselves are {e not} internally
    synchronized — the scheduler guarantees at most one request runs per
    session at a time (see {!Scheduler}). *)

module Incremental = Leakage_incremental.Incremental

type spec = {
  circuit : Protocol.circuit_spec;
  device : Leakage_device.Params.t;
      (** the corner part of the session key is this device's canonical
          name, lowercased, so [d25s], [d25-s] and [D25-S] share a session *)
  temp_c : float;
}

type session = {
  id : int;
  key : string;
  digest : string;
  spec : spec;
  lib : Leakage_core.Library.t;
  incr : Incremental.t;
  checkpoints : (int, Incremental.checkpoint) Hashtbl.t;
  mutable next_checkpoint : int;
  mutable last_used : float;
  mutable in_flight : int;  (** requests queued or running on this session *)
  mutable closed : bool;
}

type t

val create :
  ?state_dir:string -> ?peer_dir:string -> ?max_sessions:int -> unit -> t
(** [max_sessions] defaults to 8. [state_dir] (created if missing) enables
    checkpoint-to-disk; without it eviction simply drops sessions and
    nothing survives a restart.

    [peer_dir] (created if missing) is a directory {e shared between
    daemons}: every checkpoint written to [state_dir] is also shipped there
    atomically (tmp + rename, so a reader never sees a partial file), and
    an open that misses both the live table and the local [state_dir]
    {e adopts} the newest matching checkpoint found in [peer_dir]. Between
    checkpoints the newest by mtime wins, wherever it lives — a daemon
    restarted over a stale [state_dir] picks up the fresher peer copy.
    This is the failover path: SIGKILL daemon A, and a client retrying
    against daemon B re-opens the same digest warm from A's last shipped
    checkpoint, losing at most the batch that was in flight.
    [serve.sessions_adopted] counts peer adoptions,
    [serve.checkpoints_shipped] the mirrored writes; a failed peer write
    (full or vanished volume) is ignored — the local checkpoint already
    landed. *)

type resolved = {
  rspec : spec;
  netlist : Leakage_circuit.Netlist.t;
  rdigest : string;
  rkey : string;
}

val resolve : t -> spec -> resolved
(** Build the netlist a spec describes and derive its registry key. Raises
    [Failure] for an unknown built-in label, [Parse_error]/[Failure] for
    bad [.bench] text. Cheap relative to opening: no estimation happens
    here, so connection threads can afford it for request routing. *)

val open_session :
  t -> resolved -> pattern:string ->
  session * Protocol.session_status
(** Attach to the live session under the resolved key, restore it from disk,
    or create it cold (one full estimate) — in that order of preference.
    [pattern] is a bit string over the primary inputs; [""] means all-zeros
    on a cold open, the checkpoint's vector on a restore and "keep the
    current vector" on a warm attach. A non-empty pattern moves a warm
    session with [Incremental.set_vector]. A checkpoint restores only when
    it matches the circuit's digest and replays without error: every kind
    keeps its gate's arity, every strength is in
    [Library.strength_in_range], and its vector (when [pattern] is [""])
    has one '0' or '1' per input; any other checkpoint opens cold, counted
    in [serve.sessions_opened]. Raises [Invalid_argument] on a malformed
    [pattern]. *)

val find : t -> int -> session option
(** Look a live session up by id ([None] after close or eviction). *)

val begin_request : t -> session -> unit
val end_request : t -> session -> unit
(** Bracket a queued-or-running request: while [in_flight > 0] the session
    is never an eviction victim. Both touch [last_used]. *)

val checkpoint_to_disk : t -> session -> unit
(** Persist the session's current state (spec, gate kinds/strengths, input
    vector) atomically into [state_dir], and ship the same bytes into
    [peer_dir] when one is configured; a no-op without either. The daemon
    calls this after every applied batch, so a kill mid-batch loses at most
    the in-flight batch. *)

val close_session : t -> session -> unit
(** Remove from the registry (final state is checkpointed first). *)

val flush_all : t -> unit
(** Checkpoint every live session — the graceful-shutdown path. *)

val live_count : t -> int
