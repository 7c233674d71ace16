(* Chrome trace-event recording. Events accumulate in per-domain buffers
   (Domain.DLS, registered in a global list on first use, like Telemetry's
   shards); serialization merges and sorts them. Timestamps are wall-clock
   microseconds relative to the last [start]. *)

(* Every event is a complete ("ph":"X") span. *)
type event = {
  name : string;
  cat : string;
  ts : float;    (* µs since trace epoch *)
  dur : float;   (* µs *)
  tid : int;     (* domain id *)
  args : (string * string) list;
}

let enabled_flag = Atomic.make false

(* epoch is written by [start] while quiescent and only read afterwards *)
let epoch = ref 0.0

type buffer = { b_tid : int; mutable events : event list (* reversed *) }

let buffers_mutex = Mutex.create ()
let all_buffers : buffer list ref = ref []

let fresh_buffer () =
  let b = { b_tid = (Domain.self () :> int); events = [] } in
  Mutex.lock buffers_mutex;
  all_buffers := b :: !all_buffers;
  Mutex.unlock buffers_mutex;
  b

let buffer_key : buffer Domain.DLS.key = Domain.DLS.new_key fresh_buffer

let emit e =
  let b = Domain.DLS.get buffer_key in
  b.events <- e :: b.events

let start () =
  Mutex.lock buffers_mutex;
  List.iter (fun b -> b.events <- []) !all_buffers;
  Mutex.unlock buffers_mutex;
  epoch := Telemetry.now_us ();
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let with_span ?(cat = "app") ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Telemetry.now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Telemetry.now_us () in
        emit
          {
            name;
            cat;
            ts = t0 -. !epoch;
            dur = t1 -. t0;
            tid = (Domain.self () :> int);
            args;
          })
      f
  end

let collected () =
  Mutex.lock buffers_mutex;
  let bufs = !all_buffers in
  Mutex.unlock buffers_mutex;
  let events = List.concat_map (fun b -> List.rev b.events) bufs in
  List.stable_sort (fun a b -> Float.compare a.ts b.ts) events

let event_count () = List.length (collected ())

(* ------------------------------------------------------------------ JSON *)

let emit_args buf args =
  Printf.bprintf buf "{";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf buf "%s\"%s\": \"%s\"" (if i > 0 then ", " else "")
        (Json.escape k) (Json.escape v))
    args;
  Printf.bprintf buf "}"

let to_json () =
  let events = collected () in
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.tid) events)
  in
  let buf = Buffer.create 4096 in
  let p fmt = Printf.bprintf buf fmt in
  p "{\"traceEvents\": [\n";
  let first = ref true in
  let sep () = if !first then first := false else p ",\n" in
  (* one named track per domain that recorded anything *)
  List.iter
    (fun tid ->
      sep ();
      p
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \
         \"tid\": %d, \"args\": {\"name\": \"domain-%d\"}}"
        tid tid)
    tids;
  List.iter
    (fun e ->
      sep ();
      p
        "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": \
         %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d"
        (Json.escape e.name) (Json.escape e.cat) e.ts e.dur e.tid;
      if e.args <> [] then begin
        p ", \"args\": ";
        emit_args buf e.args
      end;
      p "}")
    events;
  p "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ()))
