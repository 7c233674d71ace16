module Netlist = Leakage_circuit.Netlist
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Bench_format = Leakage_circuit.Bench_format
module Library = Leakage_core.Library
module Incremental = Leakage_incremental.Incremental
module Suite = Leakage_benchmarks.Suite
module Tm = Leakage_telemetry.Telemetry

let m_opened = Tm.counter "serve.sessions_opened"
let m_attached = Tm.counter "serve.sessions_attached"
let m_restored = Tm.counter "serve.sessions_restored"
let m_adopted = Tm.counter "serve.sessions_adopted"
let m_shipped = Tm.counter "serve.checkpoints_shipped"
let m_evicted = Tm.counter "serve.sessions_evicted"
let m_closed = Tm.counter "serve.sessions_closed"
let m_checkpoints = Tm.counter "serve.checkpoints_written"

type spec = {
  circuit : Protocol.circuit_spec;
  device : Leakage_device.Params.t;
  temp_c : float;
}

type session = {
  id : int;
  key : string;
  digest : string;
  spec : spec;
  lib : Library.t;
  incr : Incremental.t;
  checkpoints : (int, Incremental.checkpoint) Hashtbl.t;
  mutable next_checkpoint : int;
  mutable last_used : float;
  mutable in_flight : int;
  mutable closed : bool;
}

type t = {
  state_dir : string option;
  peer_dir : string option;
  max_sessions : int;
  by_key : (string, session) Hashtbl.t;
  by_id : (int, session) Hashtbl.t;
  libs : (string, Library.t) Hashtbl.t;  (* one library per corner *)
  mutex : Mutex.t;
  mutable next_id : int;
}

let ensure_dir = function
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ()

let create ?state_dir ?peer_dir ?(max_sessions = 8) () =
  if max_sessions < 1 then invalid_arg "Registry.create: max_sessions >= 1";
  ensure_dir state_dir;
  ensure_dir peer_dir;
  {
    state_dir;
    peer_dir;
    max_sessions;
    by_key = Hashtbl.create 16;
    by_id = Hashtbl.create 16;
    libs = Hashtbl.create 4;
    mutex = Mutex.create ();
    next_id = 1;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ----------------------------------------------------------- resolving *)

type resolved = {
  rspec : spec;
  netlist : Netlist.t;
  rdigest : string;
  rkey : string;
}

(* The canonical device name, so every spelling of a corner reaches one
   session; it is also the corner string LKC1 checkpoints store. *)
let corner_name spec =
  String.lowercase_ascii spec.device.Leakage_device.Params.name

let corner_key spec = Printf.sprintf "%s@%.6g" (corner_name spec) spec.temp_c

let resolve t spec =
  let netlist =
    match spec.circuit with
    | Protocol.Builtin label -> (Suite.find label).Suite.build ()
    | Protocol.Bench { name; text } -> Bench_format.parse_string ~name text
  in
  Netlist.warm netlist;
  let rdigest = Netlist.digest netlist in
  let rkey = rdigest ^ "@" ^ corner_key spec in
  ignore t;
  { rspec = spec; netlist; rdigest; rkey }

let library_for t spec =
  locked t (fun () ->
      let ck = corner_key spec in
      match Hashtbl.find_opt t.libs ck with
      | Some lib -> lib
      | None ->
        let lib =
          Library.create ~device:spec.device
            ~temp:(Leakage_device.Physics.celsius_to_kelvin spec.temp_c) ()
        in
        Hashtbl.replace t.libs ck lib;
        lib)

(* ----------------------------------------------------- disk checkpoints *)

let ckpt_magic = "LKC1"
let ckpt_version = 1

let sanitize key =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
      | _ -> '-')
    key

let ckpt_file dir key = Filename.concat dir (sanitize key ^ ".ckpt")

let ckpt_path t key = Option.map (fun dir -> ckpt_file dir key) t.state_dir

let encode_checkpoint session =
  let b = Buffer.create 4096 in
  Buffer.add_string b ckpt_magic;
  Wire.put_u8 b ckpt_version;
  Wire.put_string b session.digest;
  Wire.put_string b (corner_name session.spec);
  Wire.put_f64 b session.spec.temp_c;
  (match session.spec.circuit with
   | Protocol.Builtin label ->
     Wire.put_u8 b 0;
     Wire.put_string b label
   | Protocol.Bench { name; text } ->
     Wire.put_u8 b 1;
     Wire.put_string b name;
     Wire.put_string b text);
  Wire.put_string b (Logic.vector_to_string (Incremental.pattern session.incr));
  let nl = Incremental.current_netlist session.incr in
  let n = Netlist.gate_count nl in
  Wire.put_u32 b n;
  for g = 0 to n - 1 do
    Wire.put_string b (Gate.name (Netlist.gate_kind nl g));
    Wire.put_f64 b (Netlist.gate_strength nl g)
  done;
  Buffer.contents b

(* A checkpoint restores state, not history: stored are the spec, the
   current kinds/strengths and the input vector — enough to rebuild the
   session's exact estimate, nothing of the undo log. *)
let decode_checkpoint text =
  let r = Wire.reader text in
  let b0 = Wire.get_u8 r in
  let b1 = Wire.get_u8 r in
  let b2 = Wire.get_u8 r in
  let b3 = Wire.get_u8 r in
  let m =
    let s = Bytes.create 4 in
    List.iteri (fun i c -> Bytes.set s i (Char.chr c)) [ b0; b1; b2; b3 ];
    Bytes.to_string s
  in
  if m <> ckpt_magic then raise (Wire.Bad_frame "checkpoint magic");
  let v = Wire.get_u8 r in
  if v <> ckpt_version then
    raise (Wire.Bad_frame (Printf.sprintf "checkpoint version %d" v));
  let digest = Wire.get_string r in
  let device_name = Wire.get_string r in
  let temp_c = Wire.get_f64 r in
  let circuit =
    match Wire.get_u8 r with
    | 0 -> Protocol.Builtin (Wire.get_string r)
    | 1 ->
      let name = Wire.get_string r in
      let text = Wire.get_string r in
      Protocol.Bench { name; text }
    | t -> raise (Wire.Bad_frame (Printf.sprintf "checkpoint circuit tag %d" t))
  in
  let pattern = Wire.get_string r in
  let n = Wire.get_u32 r in
  let gates =
    Array.init n (fun _ ->
        let kind = Gate.of_name (Wire.get_string r) in
        let strength = Wire.get_f64 r in
        (kind, strength))
  in
  Wire.expect_end r;
  (digest, device_name, temp_c, circuit, pattern, gates)

(* tmp-in-same-dir + rename: readers (this daemon or a peer adopting the
   session) only ever see a complete checkpoint, never a partial write *)
let write_atomic path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

let checkpoint_to_disk t session =
  if t.state_dir <> None || t.peer_dir <> None then begin
    let text = encode_checkpoint session in
    (match ckpt_path t session.key with
     | None -> ()
     | Some path ->
       write_atomic path text;
       Tm.incr m_checkpoints);
    (* ship the same bytes into the shared peer directory so a second
       daemon can adopt the session the moment this one dies *)
    match t.peer_dir with
    | None -> ()
    | Some dir ->
      (match write_atomic (ckpt_file dir session.key) text with
       | () -> Tm.incr m_shipped
       | exception (Sys_error _ | Unix.Unix_error _) ->
         (* a full or vanished peer volume must not fail the request — the
            local checkpoint already landed *)
         ())
  end

type ckpt_source = Local | Peer

let read_checkpoint_file path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match decode_checkpoint text with
    | ckpt -> Some ckpt
    | exception (Wire.Bad_frame _ | Wire.Truncated | Invalid_argument _) ->
      (* a corrupt checkpoint never blocks an open — fall back to cold *)
      None
  end

(* Newest decodable checkpoint wins across the local state dir and the
   shared peer dir: a daemon restarted onto a stale local state dir must
   still adopt the fresher checkpoint its peer shipped, and vice versa. *)
let read_checkpoint t key =
  let candidate source = function
    | None -> None
    | Some dir ->
      let path = ckpt_file dir key in
      (match Unix.stat path with
       | st -> Some (st.Unix.st_mtime, source, path)
       | exception Unix.Unix_error _ -> None)
  in
  let candidates =
    List.filter_map Fun.id
      [ candidate Local t.state_dir; candidate Peer t.peer_dir ]
    |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a)
  in
  List.find_map
    (fun (_, source, path) ->
      match read_checkpoint_file path with
      | Some ckpt -> Some (source, ckpt)
      | None | (exception (Sys_error _ | Unix.Unix_error _)) -> None)
    candidates

(* ------------------------------------------------------------- opening *)

let parse_pattern netlist = function
  | "" -> Array.make (Array.length (Netlist.inputs netlist)) Logic.Zero
  | bits ->
    let width = Array.length (Netlist.inputs netlist) in
    if String.length bits <> width then
      invalid_arg
        (Printf.sprintf "pattern needs %d bits, got %d" width
           (String.length bits));
    Logic.vector_of_string bits

let evict_idle_locked t ~keep =
  while
    Hashtbl.length t.by_key > t.max_sessions
    &&
    (* LRU among idle sessions, never the one just opened *)
    match
      Hashtbl.fold
        (fun _ s best ->
          if s.id = keep || s.in_flight > 0 then best
          else
            match best with
            | Some b when b.last_used <= s.last_used -> best
            | _ -> Some s)
        t.by_key None
    with
    | None -> false
    | Some victim ->
      checkpoint_to_disk t victim;
      victim.closed <- true;
      Hashtbl.remove t.by_key victim.key;
      Hashtbl.remove t.by_id victim.id;
      Tm.incr m_evicted;
      true
  do
    ()
  done

let install t session =
  locked t (fun () ->
      Hashtbl.replace t.by_key session.key session;
      Hashtbl.replace t.by_id session.id session;
      evict_idle_locked t ~keep:session.id)

let fresh_id t = locked t (fun () ->
    let id = t.next_id in
    t.next_id <- id + 1;
    id)

let make_session t resolved ~lib ~incr =
  {
    id = fresh_id t;
    key = resolved.rkey;
    digest = resolved.rdigest;
    spec = resolved.rspec;
    lib;
    incr;
    checkpoints = Hashtbl.create 8;
    next_checkpoint = 1;
    last_used = Unix.gettimeofday ();
    in_flight = 0;
    closed = false;
  }

let open_session t resolved ~pattern =
  match locked t (fun () -> Hashtbl.find_opt t.by_key resolved.rkey) with
  | Some session ->
    session.last_used <- Unix.gettimeofday ();
    if pattern <> "" then
      Incremental.set_vector session.incr
        (parse_pattern resolved.netlist pattern);
    Tm.incr m_attached;
    (session, Protocol.Warm)
  | None ->
    let lib = library_for t resolved.rspec in
    (match read_checkpoint t resolved.rkey with
     | Some (source, (digest, _, _, _, ckpt_pattern, kinds))
       when digest = resolved.rdigest
            && Array.length kinds = Netlist.gate_count resolved.netlist ->
       (* restore: replay the stored kinds/strengths onto the freshly built
          base netlist and open the session in that state *)
       let nl' =
         Netlist.with_kinds_strengths resolved.netlist
           ~kinds:(Array.map fst kinds)
           ~strengths:(Array.map snd kinds)
       in
       Netlist.warm nl';
       let vec =
         if pattern <> "" then parse_pattern resolved.netlist pattern
         else Logic.vector_of_string ckpt_pattern
       in
       let incr = Incremental.create lib nl' vec in
       let session = make_session t resolved ~lib ~incr in
       install t session;
       (* a restored session is durable again under the new daemon's own
          dirs right away, not only after its first applied batch *)
       checkpoint_to_disk t session;
       Tm.incr m_restored;
       if source = Peer then Tm.incr m_adopted;
       (session, Protocol.Restored)
     | _ ->
       let vec = parse_pattern resolved.netlist pattern in
       let incr = Incremental.create lib resolved.netlist vec in
       let session = make_session t resolved ~lib ~incr in
       install t session;
       checkpoint_to_disk t session;
       Tm.incr m_opened;
       (session, Protocol.Cold))

let find t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_id id with
      | Some s when not s.closed -> Some s
      | _ -> None)

let begin_request t session =
  locked t (fun () ->
      session.in_flight <- session.in_flight + 1;
      session.last_used <- Unix.gettimeofday ())

let end_request t session =
  locked t (fun () ->
      session.in_flight <- max 0 (session.in_flight - 1);
      session.last_used <- Unix.gettimeofday ())

let close_session t session =
  checkpoint_to_disk t session;
  locked t (fun () ->
      session.closed <- true;
      Hashtbl.remove t.by_key session.key;
      Hashtbl.remove t.by_id session.id);
  Tm.incr m_closed

let live_sessions t =
  locked t (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.by_key [])

let live_count t = locked t (fun () -> Hashtbl.length t.by_key)

let flush_all t = List.iter (checkpoint_to_disk t) (live_sessions t)
