(* Leveled structured JSONL event log.

   One line per event: {"ts":<unix seconds>,"level":"info","event":"...",
   "rid":"...",<fields>}. The sink is process-global; writes serialize on a
   mutex (events are rare next to metric increments — a request emits a
   handful of lines, not thousands). While no sink is installed, [emit] is
   one atomic load and a branch: zero allocation, matching the telemetry
   contract that observability off costs nothing.

   Request ids travel ambiently through Domain.DLS: an executor domain runs
   one job at a time, so [with_rid] around the job makes every log line and
   span inside it carry the id without threading it through signatures.
   Sys-threads multiplexed on one domain (connection readers) share that
   slot — they must pass ["rid"] explicitly instead. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type field =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

let str s = Str s
let int i = Int i
let float f = Float f

(* 0 = off; else 1 + rank of the minimum level *)
let gate = Atomic.make 0

let sink_mutex = Mutex.create ()
let sink : out_channel option ref = ref None
let owns_sink = ref false

let enabled level = Atomic.get gate <> 0 && level_rank level + 1 >= Atomic.get gate

let close_sink_locked () =
  (match !sink with
   | Some oc when !owns_sink -> (try close_out oc with Sys_error _ -> ())
   | Some oc -> ( try flush oc with Sys_error _ -> ())
   | None -> ());
  sink := None;
  owns_sink := false

let enable ?(level = Info) oc =
  Mutex.lock sink_mutex;
  close_sink_locked ();
  sink := Some oc;
  owns_sink := false;
  Mutex.unlock sink_mutex;
  Atomic.set gate (level_rank level + 1)

let enable_file ?(level = Info) path =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Mutex.lock sink_mutex;
  close_sink_locked ();
  sink := Some oc;
  owns_sink := true;
  Mutex.unlock sink_mutex;
  Atomic.set gate (level_rank level + 1)

let disable () =
  Atomic.set gate 0;
  Mutex.lock sink_mutex;
  close_sink_locked ();
  Mutex.unlock sink_mutex

(* ------------------------------------------------------- ambient rid *)

let rid_key : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_rid () = !(Domain.DLS.get rid_key)

let with_rid rid f =
  let slot = Domain.DLS.get rid_key in
  let saved = !slot in
  slot := Some rid;
  Fun.protect ~finally:(fun () -> slot := saved) f

(* ------------------------------------------------------------ emission *)

let add_field b (k, v) =
  Buffer.add_string b ",\"";
  Buffer.add_string b (Json.escape k);
  Buffer.add_string b "\":";
  match v with
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (Json.escape s);
    Buffer.add_char b '"'
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (Json.number f)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")

let emit level event fields =
  if enabled level then begin
    let b = Buffer.create 160 in
    Buffer.add_string b "{\"ts\":";
    Buffer.add_string b (Printf.sprintf "%.6f" (Unix.gettimeofday ()));
    Buffer.add_string b ",\"level\":\"";
    Buffer.add_string b (level_name level);
    Buffer.add_string b "\",\"event\":\"";
    Buffer.add_string b (Json.escape event);
    Buffer.add_char b '"';
    let has_rid = List.exists (fun (k, _) -> k = "rid") fields in
    (if not has_rid then
       match current_rid () with
       | Some rid -> add_field b ("rid", Str rid)
       | None -> ());
    List.iter (add_field b) fields;
    Buffer.add_string b "}\n";
    let line = Buffer.contents b in
    Mutex.lock sink_mutex;
    (match !sink with
     | Some oc -> ( try output_string oc line; flush oc with Sys_error _ -> ())
     | None -> ());
    Mutex.unlock sink_mutex
  end

let info event fields = emit Info event fields
let warn event fields = emit Warn event fields
