(** Minimal read-only HTTP/1.1 responder — the daemon's observability
    sidecar speaks it on the [--http-port] listener so Prometheus (or
    plain [curl]) can scrape [/metrics] and probe [/healthz] without the
    binary protocol.

    Scope is deliberately small: GET only (anything else answers [405]),
    one request per connection ([Connection: close]), no bodies read, no
    TLS, stdlib+unix only. Header blocks are capped at 16 KiB. *)

type response = {
  status : int;
  content_type : string;
  body : string;
}

val response : ?content_type:string -> int -> string -> response
(** [content_type] defaults to [text/plain; charset=utf-8]. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string: loops over short writes, retries [EINTR], and
    waits for writability on a zero-length return — a response body either
    goes out in full or the call raises. Exposed for the truncation
    regression tests. *)

val handle : Unix.file_descr -> (string -> response option) -> unit
(** [handle fd route] serves one request on a connected socket and closes
    it: parse the request line, answer [route path] (query strings are
    stripped; [None] answers [404]), [405] for non-GET, [400] for
    garbage. Never raises — network errors just drop the connection.
    Before closing, it ends its side and reads what the peer sent past the
    head (up to twice the 16 KiB head cap, for at most a second), so the
    close does not reset the connection under an unread reply. *)
