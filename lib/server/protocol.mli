(** Typed requests and responses of the [leakctl serve] protocol, and their
    binary codecs over {!Wire} frames.

    The protocol is strictly request/response: a client writes one request
    frame and reads exactly one response frame. Every request either
    succeeds with its typed response or fails with an {!constructor-Error}
    frame carrying a structured {!error_code}; {!retriable} tells a client
    whether backing off and retrying can help (admission-control rejections,
    a draining server) or whether the request itself is at fault.

    Netlists travel as a {!circuit_spec} — a built-in benchmark name or
    inline ISCAS89 [.bench] text; the server derives the session key from
    {!Leakage_circuit.Netlist.digest}, never from the spec, so two clients
    sending the same circuit through different routes share one warm
    session. Edits travel as plain {!edit}s (gate kinds by cell name);
    [Relib] edits are not expressible on the wire — corners are fixed per
    session at [open]. *)

type circuit_spec =
  | Builtin of string  (** a [Leakage_benchmarks.Suite] circuit label *)
  | Bench of { name : string; text : string }  (** inline [.bench] source *)

type edit =
  | Resize of int * float
  | Retype of int * string  (** cell name as {!Leakage_circuit.Gate.of_name} *)
  | Set_input of int * bool

type error_code =
  | Bad_request      (** malformed frame/payload, unknown circuit or edit *)
  | Unknown_session  (** no live session with that id *)
  | Unknown_checkpoint
  | Over_quota       (** tenant's in-flight budget exhausted — retry later *)
  | Shutting_down    (** server is draining — retry against a new server *)
  | Internal

val retriable : error_code -> bool
val error_code_name : error_code -> string

type session_status =
  | Cold      (** built and estimated from scratch *)
  | Warm      (** attached to a live session with the same digest/corner *)
  | Restored  (** rebuilt from the registry's on-disk checkpoint *)

val session_status_name : session_status -> string

type request =
  | Ping
  | Open_session of {
      tenant : string;
      circuit : circuit_spec;
      device : string;
          (** corner name, any spelling {!Leakage_device.Params.of_name}
              accepts: d25, d50, d25-s, d25-g, d25-jn *)
      temp_c : float;
      pattern : string;
          (** primary-input bits, [""] = all zeros on a cold open / keep the
              current vector on a warm attach *)
    }
  | Apply_batch of { session : int; edits : edit list }
  | Query of {
      session : int;
      refresh : bool;
          (** re-sum everything from current state first; makes the reply a
              function of session {e state} alone, independent of the edit
              history's float associations *)
    }
  | Checkpoint of { session : int }
  | Rollback of { session : int; checkpoint : int }
  | Close of { session : int }
  | Metrics_snapshot
      (** the full typed snapshot plus uptime/version — what [leakctl top]
          polls and [leakctl client metrics] prints *)
  | Shutdown

type response =
  | Pong
  | Session_opened of {
      session : int;
      digest : string;
      status : session_status;
      gates : int;
    }
  | Applied of { session : int; edits : int }
  | Queried of {
      session : int;
      loaded : Leakage_spice.Leakage_report.components;
      baseline : Leakage_spice.Leakage_report.components;
    }
  | Checkpointed of { session : int; checkpoint : int }
  | Rolled_back of { session : int }
  | Closed of { session : int }
  | Metrics_snapshot_report of {
      uptime_s : float;
      version : string;
      snapshot : Leakage_telemetry.Telemetry.Snapshot.t;
    }
  | Shutdown_ack
  | Error of {
      code : error_code;
      message : string;
      retry_after_ms : float;
          (** backoff hint for retriable errors — how long until the
              tenant's token bucket holds a token again ([0] = no hint).
              Advisory: a client may retry sooner and be rejected again. *)
    }

val encode_request : request -> Wire.frame
val decode_request : Wire.frame -> request
(** Raises {!Wire.Bad_frame} / {!Wire.Truncated} on malformed input,
    including unknown opcodes and undecoded trailing payload bytes. *)

val encode_response : response -> Wire.frame
val decode_response : Wire.frame -> response

val edit_to_incremental : edit -> Leakage_incremental.Edit.t
(** Raises [Invalid_argument] on an unknown cell name. *)

val request_name : request -> string
(** Short op label ([ping], [open], [apply], ...) — the [op] label of the
    per-request metric families and log lines. *)
