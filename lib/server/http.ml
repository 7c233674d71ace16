(* Minimal read-only HTTP/1.1 responder for the daemon's observability
   sidecar. Deliberately tiny: GET only, no keep-alive, no chunking, no
   TLS — just enough for a Prometheus scraper or curl against /metrics
   and /healthz. Anything beyond that 405s or 404s. *)

type response = {
  status : int;
  content_type : string;
  body : string;
}

let response ?(content_type = "text/plain; charset=utf-8") status body =
  { status; content_type; body }

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | 0 ->
        (* no progress: wait for writability rather than dropping the tail
           of the response (a zero return is not an error, but treating it
           as "done" silently truncates bodies larger than the socket
           buffer) *)
        (try ignore (Unix.select [] [ fd ] [] 0.05)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go off
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let write_response fd { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n"
      status (status_text status) content_type (String.length body)
  in
  write_all fd (head ^ body)

(* Read until the blank line ending the header block (requests here have
   no bodies — GETs from scrapers), bounded so a hostile peer cannot make
   us buffer forever. *)
let max_head = 16 * 1024

(* Whether "\r\n\r\n" starts at some position from [i] on. *)
let rec has_terminator buf i =
  i + 3 < Buffer.length buf
  && ((Buffer.nth buf i = '\r'
      && Buffer.nth buf (i + 1) = '\n'
      && Buffer.nth buf (i + 2) = '\r'
      && Buffer.nth buf (i + 3) = '\n')
     || has_terminator buf (i + 1))

(* Each read's bytes are scanned once: the search resumes three bytes
   before the old end, so a terminator split across two reads is found,
   and a head costs time and memory linear in its length. *)
let read_head fd chunk =
  let buf = Buffer.create 512 in
  let rec go from =
    if Buffer.length buf > max_head then None
    else if has_terminator buf from then Some (Buffer.contents buf)
    else
      let from = Stdlib.max 0 (Buffer.length buf - 3) in
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go from
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go from
  in
  go 0

let parse_request_line head =
  match String.index_opt head '\r' with
  | None -> None
  | Some eol -> (
    let line = String.sub head 0 eol in
    match String.split_on_char ' ' line with
    | [ meth; target; _version ] ->
      (* strip any query string: routes here take no parameters *)
      let path =
        match String.index_opt target '?' with
        | Some q -> String.sub target 0 q
        | None -> target
      in
      Some (meth, path)
    | _ -> None)

(* Read and drop what the peer sent past the head, up to twice the head
   cap more, until it ends its side or goes quiet for [linger] seconds: a
   socket closed with unread bytes is reset, and a reset can discard the
   reply before the peer reads it. Twice the cap covers a head accepted
   from the first read followed by a head-sized tail, and the tail of a
   head past the cap. The reply is ended first, so a peer waiting for it
   to finish closes its side and the drain sees the end; a peer that does
   neither holds the handler [linger] seconds at most. *)
let linger = 1.0

let drain fd chunk =
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. linger in
  let rec go left =
    let wait = deadline -. Unix.gettimeofday () in
    if left > 0 && wait > 0.0 then
      match Unix.select [ fd ] [] [] wait with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 (Stdlib.min left (Bytes.length chunk)) with
        | 0 -> ()
        | n -> go (left - n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go left)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go left
  in
  go (2 * max_head)

let handle fd route =
  let chunk = Bytes.create 512 in
  (try
     (match read_head fd chunk with
     | None -> ()
     | Some head -> (
       match parse_request_line head with
       | None -> write_response fd (response 400 "malformed request\n")
       | Some (meth, path) ->
         if meth <> "GET" then
           write_response fd (response 405 "only GET is served here\n")
         else
           let resp =
             match route path with
             | Some r -> r
             | None -> response 404 "unknown path\n"
           in
           write_response fd resp));
     drain fd chunk
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()
