exception Server_error of Protocol.error_code * string
exception Poisoned of string

type endpoint = Unix_path of string | Tcp of string * int

let endpoint_name = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

type policy = {
  retries : int;
  backoff_ms : float;
  max_backoff_ms : float;
  timeout_ms : float option;
  jitter : float;
}

let default_policy =
  { retries = 0; backoff_ms = 25.0; max_backoff_ms = 1000.0;
    timeout_ms = None; jitter = 0.25 }

type stats = {
  retries : int;
  reconnects : int;
  over_quota_waits : int;
  timeouts : int;
}

type t = {
  endpoints : endpoint array;
  policy : policy;
  rng : Random.State.t;
  mutable fd : Unix.file_descr option;
  mutable endpoint_ix : int;
  mutable poisoned : string option;
  mutable closed : bool;
  mutable ever_connected : bool;
  mutable n_retries : int;
  mutable n_reconnects : int;
  mutable n_over_quota : int;
  mutable n_timeouts : int;
}

let stats t =
  {
    retries = t.n_retries;
    reconnects = t.n_reconnects;
    over_quota_waits = t.n_over_quota;
    timeouts = t.n_timeouts;
  }

let policy t = t.policy

let current_endpoint t =
  match t.fd with None -> None | Some _ -> Some t.endpoints.(t.endpoint_ix)

(* -------------------------------------------------------------- connect *)

(* [Unix.inet_addr_of_string] only takes literal addresses; resolving via
   getaddrinfo lets --port clients say "localhost" (or any name) and turns
   an unresolvable host into a clean [Failure] instead of a backtrace. *)
let resolve_tcp host port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | [] -> failwith (Printf.sprintf "cannot resolve host %s" host)
  | ais -> List.map (fun ai -> (ai.Unix.ai_addr, ai.Unix.ai_family)) ais

let connect_fd policy endpoint =
  let addrs =
    match endpoint with
    | Unix_path path -> [ (Unix.ADDR_UNIX path, Unix.PF_UNIX) ]
    | Tcp (host, port) -> resolve_tcp host port
  in
  let connect_one (sockaddr, family) =
    let fd = Unix.socket family Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd sockaddr;
       (* belt-and-braces under the select deadline: a read that blocks
          anyway gets kicked out by the kernel too *)
       Option.iter
         (fun ms -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO (ms /. 1000.0))
         policy.timeout_ms
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  in
  (* a name may resolve to several addresses (v6 then v4, say); take the
     first that accepts, keep the last error when none does *)
  let rec try_addrs = function
    | [] -> assert false
    | [ a ] -> connect_one a
    | a :: rest -> (
      match connect_one a with
      | fd -> fd
      | exception Unix.Unix_error _ -> try_addrs rest)
  in
  try_addrs addrs

(* One pass over the endpoint list, starting at the current index so a
   client sticks to the endpoint that last worked; first success wins. *)
let connect_round t =
  let n = Array.length t.endpoints in
  let rec try_at k last_exn =
    if k >= n then raise last_exn
    else begin
      let ix = (t.endpoint_ix + k) mod n in
      match connect_fd t.policy t.endpoints.(ix) with
      | fd ->
        t.fd <- Some fd;
        t.endpoint_ix <- ix;
        t.poisoned <- None;
        if t.ever_connected then t.n_reconnects <- t.n_reconnects + 1;
        t.ever_connected <- true
      | exception ((Unix.Unix_error _ | Failure _) as e) -> try_at (k + 1) e
    end
  in
  try_at 0 (Failure "Client.connect: no endpoints")

let drop_fd t =
  (match t.fd with
   | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  t.fd <- None

let poison t reason =
  t.poisoned <- Some reason;
  drop_fd t

(* capped exponential backoff with jitter; a server-supplied retry-after
   hint extends the sleep when it is longer than the backoff would be *)
let retry_wait t ~attempt ~hint_ms =
  let base = t.policy.backoff_ms *. (2.0 ** float_of_int attempt) in
  let capped = Float.min t.policy.max_backoff_ms base in
  let jittered =
    capped
    *. (1.0 +. (t.policy.jitter *. ((2.0 *. Random.State.float t.rng 1.0) -. 1.0)))
  in
  let ms = Float.max 0.0 (Float.max jittered hint_ms) in
  if ms > 0.0 then Unix.sleepf (ms /. 1000.0)

let connect ?(policy = default_policy) ?(seed = 0) endpoints =
  if endpoints = [] then invalid_arg "Client.connect: no endpoints";
  let t =
    {
      endpoints = Array.of_list endpoints;
      policy;
      rng = Random.State.make [| seed; 0x1eacc7 |];
      fd = None;
      endpoint_ix = 0;
      poisoned = None;
      closed = false;
      ever_connected = false;
      n_retries = 0;
      n_reconnects = 0;
      n_over_quota = 0;
      n_timeouts = 0;
    }
  in
  let rec go attempt =
    match connect_round t with
    | () -> ()
    | exception e ->
      if attempt >= policy.retries then raise e
      else begin
        retry_wait t ~attempt ~hint_ms:0.0;
        go (attempt + 1)
      end
  in
  go 0;
  t

let connect_unix ?policy path = connect ?policy [ Unix_path path ]

let connect_tcp ?policy ?(host = "127.0.0.1") port =
  connect ?policy [ Tcp (host, port) ]

let close t =
  if not t.closed then begin
    t.closed <- true;
    drop_fd t
  end

(* ------------------------------------------------------------------ rpc *)

let deadline_of t =
  Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.0)) t.policy.timeout_ms

(* One strict round trip on the live socket. Any wire-level failure poisons
   the client: after a timeout or a desync the reply we never read could
   still arrive, and a second request would read it as its own answer. *)
let once t req =
  let fd =
    match t.fd with
    | Some fd -> fd
    | None ->
      raise (Poisoned (Option.value ~default:"not connected" t.poisoned))
  in
  match
    Wire.write_frame fd (Protocol.encode_request req);
    Protocol.decode_response (Wire.read_frame ?deadline:(deadline_of t) fd)
  with
  | resp -> resp
  | exception Wire.Timeout ->
    t.n_timeouts <- t.n_timeouts + 1;
    poison t "rpc timed out; a late reply would desynchronize the stream";
    raise Wire.Timeout
  | exception Wire.Truncated ->
    poison t "server hung up mid-frame";
    raise Wire.Truncated
  | exception (Wire.Bad_frame m as e) ->
    poison t ("undecodable frame from server: " ^ m);
    raise e
  | exception End_of_file ->
    poison t "server closed the connection";
    raise End_of_file
  | exception (Unix.Unix_error (err, _, _) as e) ->
    poison t ("socket error: " ^ Unix.error_message err);
    raise e

let rpc t req =
  if t.closed then invalid_arg "Client.rpc: closed";
  (match (t.poisoned, t.policy.retries) with
   | Some m, 0 ->
     (* no retry budget: a poisoned client stays poisoned — every call
        fails loudly instead of writing onto a desynced stream *)
     raise (Poisoned ("connection poisoned: " ^ m))
   | _ -> ());
  let rec go attempt =
    match
      if t.fd = None then connect_round t;
      once t req
    with
    | Protocol.Error { code; retry_after_ms; _ }
      when Protocol.retriable code && attempt < t.policy.retries ->
      if code = Protocol.Over_quota then t.n_over_quota <- t.n_over_quota + 1;
      t.n_retries <- t.n_retries + 1;
      retry_wait t ~attempt ~hint_ms:retry_after_ms;
      go (attempt + 1)
    | resp -> resp
    | exception
        ((Poisoned _ | Wire.Timeout | Wire.Truncated | Wire.Bad_frame _
         | End_of_file
         | Unix.Unix_error _
         | Failure _) as e) ->
      if attempt >= t.policy.retries then raise e
      else begin
        (* transport-level failure: back off, then the next round's
           [connect_round] moves to the next endpoint that answers *)
        t.n_retries <- t.n_retries + 1;
        retry_wait t ~attempt ~hint_ms:0.0;
        go (attempt + 1)
      end
  in
  go 0

(* unwrap an Error frame into an exception; anything else falls through *)
let ok t req k =
  match rpc t req with
  | Protocol.Error { code; message; _ } -> raise (Server_error (code, message))
  | resp -> k resp

let unexpected what = failwith ("Client: unexpected response to " ^ what)

type opened = {
  session : int;
  digest : string;
  status : Protocol.session_status;
  gates : int;
}

let ping t =
  ok t Protocol.Ping (function
    | Protocol.Pong -> ()
    | _ -> unexpected "ping")

let open_session t ?(tenant = "anon") ?(device = "d25") ?(temp_c = 25.0)
    ?(pattern = "") ~circuit () =
  ok t (Protocol.Open_session { tenant; circuit; device; temp_c; pattern })
    (function
    | Protocol.Session_opened { session; digest; status; gates } ->
      { session; digest; status; gates }
    | _ -> unexpected "open_session")

let apply_batch t ~session edits =
  ok t (Protocol.Apply_batch { session; edits }) (function
    | Protocol.Applied { groups; _ } -> groups
    | _ -> unexpected "apply_batch")

let query t ~session ?(refresh = false) () =
  ok t (Protocol.Query { session; refresh }) (function
    | Protocol.Queried { loaded; baseline; _ } -> (loaded, baseline)
    | _ -> unexpected "query")

let checkpoint t ~session =
  ok t (Protocol.Checkpoint { session }) (function
    | Protocol.Checkpointed { checkpoint; _ } -> checkpoint
    | _ -> unexpected "checkpoint")

let rollback t ~session ~checkpoint =
  ok t (Protocol.Rollback { session; checkpoint }) (function
    | Protocol.Rolled_back _ -> ()
    | _ -> unexpected "rollback")

let close_session t ~session =
  ok t (Protocol.Close { session }) (function
    | Protocol.Closed _ -> ()
    | _ -> unexpected "close_session")

type snapshot_report = {
  uptime_s : float;
  version : string;
  snapshot : Leakage_telemetry.Telemetry.Snapshot.t;
}

let metrics_snapshot t =
  ok t Protocol.Metrics_snapshot (function
    | Protocol.Metrics_snapshot_report { uptime_s; version; snapshot } ->
      { uptime_s; version; snapshot }
    | _ -> unexpected "metrics_snapshot")

let shutdown_server t =
  ok t Protocol.Shutdown (function
    | Protocol.Shutdown_ack -> ()
    | _ -> unexpected "shutdown")

(* ------------------------------------------------------------- failover *)

module Failover = struct
  type session = {
    client : t;
    tenant : string;
    device : string;
    temp_c : float;
    circuit : Protocol.circuit_spec;
    mutable sid : int;
    mutable last_status : Protocol.session_status;
    mutable reopens : int;
  }

  let session_id s = s.sid
  let status s = s.last_status
  let reopens s = s.reopens
  let client s = s.client

  let open_session client ?(tenant = "anon") ?(device = "d25")
      ?(temp_c = 25.0) ?(pattern = "") ~circuit () =
    let o = open_session client ~tenant ~device ~temp_c ~pattern ~circuit () in
    {
      client;
      tenant;
      device;
      temp_c;
      circuit;
      sid = o.session;
      last_status = o.status;
      reopens = 0;
    }

  (* Re-open the same digest/corner with an empty pattern: a live session
     keeps its vector, a restored one takes it from the checkpoint — so the
     re-opened session is exactly the last durable state. *)
  let reopen s =
    let o =
      open_session s.client ~tenant:s.tenant ~device:s.device
        ~temp_c:s.temp_c ~pattern:"" ~circuit:s.circuit ()
    in
    s.sid <- o.sid;
    s.last_status <- o.last_status;
    s.reopens <- s.reopens + (1 + o.reopens)

  (* Run a session-scoped op; when the daemon holding the session died (the
     id is gone, or the transport failed beyond the rpc layer's retries),
     re-open — landing on whichever endpoint answers, warm from the shipped
     checkpoint — and replay the op against the new id. Callers must send
     idempotent ops (the protocol's edits all set absolute state). *)
  let with_session s f =
    let limit = Int.max 1 (s.client.policy.retries + 1) in
    let rec go n =
      match f s.sid with
      | v -> v
      | exception
          ( Server_error (Protocol.Unknown_session, _)
          | Poisoned _ | Wire.Timeout | Wire.Truncated | Wire.Bad_frame _
          | End_of_file
          | Unix.Unix_error _ )
        when n < limit ->
        reopen s;
        go (n + 1)
    in
    go 0

  let apply s edits =
    with_session s (fun sid -> apply_batch s.client ~session:sid edits)

  let query s ?(refresh = false) () =
    with_session s (fun sid -> query s.client ~session:sid ~refresh ())

  let close_session s =
    with_session s (fun sid -> close_session s.client ~session:sid)
end
