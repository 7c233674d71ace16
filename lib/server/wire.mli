(** Length-prefixed binary framing for the [leakctl serve] protocol.

    Every message on the wire is one frame:

    {v
      +-------+---------+--------+-------------+-----------------+
      | magic | version | opcode | payload len | payload         |
      | 4 B   | 1 B     | 1 B    | 4 B (BE)    | payload-len B   |
      +-------+---------+--------+-------------+-----------------+
    v}

    The magic ["LKS1"] and the version byte make accidental cross-protocol
    connections fail fast with {!Bad_frame} instead of hanging half-parsed;
    the length prefix (big-endian, capped at {!max_payload}) lets a reader
    consume exactly one frame without lookahead. Payload contents are opaque
    here — {!Protocol} gives them meaning.

    Primitive codecs write into a [Buffer.t] and read through a {!reader}
    cursor; integers are big-endian, floats are IEEE-754 bit patterns
    ([Int64.bits_of_float]), strings are [u32]-length-prefixed bytes. *)

exception Truncated
(** The input ended inside a field or frame. *)

exception Bad_frame of string
(** Structurally invalid input: wrong magic, unsupported version, oversized
    payload declaration, unknown opcode, or trailing bytes. *)

exception Timeout
(** A [deadline] passed while waiting for bytes (or [SO_RCVTIMEO] expired
    under a blocked read). The stream may now be desynchronized — the frame
    could still arrive later — so a transport that sees this must not reuse
    the connection (see {!Client} poisoning). *)

val magic : string
val version : int

val max_payload : int
(** Upper bound on a declared payload length (64 MiB). A length beyond it is
    rejected as {!Bad_frame} before any allocation. *)

val header_size : int
(** Bytes before the payload: magic + version + opcode + length. *)

type frame = { op : int; payload : string }

(** {2 Primitive codecs} *)

val put_u8 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
(** Raises [Invalid_argument] outside [\[0, 2^32)]. *)

val put_u64 : Buffer.t -> int64 -> unit
val put_f64 : Buffer.t -> float -> unit
val put_bool : Buffer.t -> bool -> unit
val put_string : Buffer.t -> string -> unit

type reader
(** A read cursor over an immutable string. All [get_*] raise {!Truncated}
    when fewer bytes remain than the field needs. *)

val reader : string -> reader
val get_u8 : reader -> int
val get_u32 : reader -> int
val get_u64 : reader -> int64
val get_f64 : reader -> float
val get_bool : reader -> bool
(** Raises {!Bad_frame} on a byte other than 0 or 1. *)

val get_string : reader -> string
val at_end : reader -> bool

val remaining : reader -> int
(** Bytes not yet read: what a decoder checks a count against before it
    allocates for that many elements. *)

val expect_end : reader -> unit
(** Raises {!Bad_frame} unless the cursor consumed its whole input — a
    decoded message must account for every payload byte. *)

(** {2 Frames} *)

val frame_to_string : frame -> string

val frame_of_string : string -> frame
(** Decode exactly one frame spanning the whole string. Raises {!Bad_frame}
    / {!Truncated} as appropriate. *)

(** {2 Blocking socket transport} *)

val read_frame : ?deadline:float -> Unix.file_descr -> frame
(** Read exactly one frame. Raises [End_of_file] on a clean EOF at a frame
    boundary, {!Truncated} on EOF inside a frame, {!Bad_frame} on garbage.
    Interrupted reads ([EINTR]) are retried, never surfaced — a signal must
    not desync a half-read stream. [deadline] is an absolute
    [Unix.gettimeofday] time; past it, waiting raises {!Timeout}. *)

val write_frame : Unix.file_descr -> frame -> unit
(** Write the whole frame. Loops over short writes, retries [EINTR], and
    waits for writability on a zero-length write — a frame is either fully
    sent or the call raises; it is never silently truncated. *)
