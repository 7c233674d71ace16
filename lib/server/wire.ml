exception Truncated
exception Bad_frame of string
exception Timeout

let magic = "LKS1"
(* Bumped on every payload layout change: decoding is strict, so a peer
   on another version fails fast with [Bad_frame]. *)
let version = 2
let max_payload = 1 lsl 26
let header_size = String.length magic + 1 + 1 + 4

type frame = { op : int; payload : string }

(* ------------------------------------------------------------- writers *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Wire.put_u32: out of range";
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u64 b v =
  for shift = 7 downto 0 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done

let put_f64 b f = put_u64 b (Int64.bits_of_float f)
let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

(* ------------------------------------------------------------- readers *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let need r n = if r.pos + n > String.length r.data then raise Truncated

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let b i = Char.code r.data.[r.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  r.pos <- r.pos + 4;
  v

let get_u64 r =
  need r 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v :=
      Int64.logor
        (Int64.shift_left !v 8)
        (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  !v

let get_f64 r = Int64.float_of_bits (get_u64 r)

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | b -> raise (Bad_frame (Printf.sprintf "bool byte %d" b))

let get_string r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let at_end r = r.pos = String.length r.data

let expect_end r =
  if not (at_end r) then
    raise
      (Bad_frame
         (Printf.sprintf "%d trailing payload bytes"
            (String.length r.data - r.pos)))

(* -------------------------------------------------------------- frames *)

let frame_to_string { op; payload } =
  let b = Buffer.create (header_size + String.length payload) in
  Buffer.add_string b magic;
  put_u8 b version;
  put_u8 b op;
  put_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

let check_header ~m ~v ~len =
  if m <> magic then raise (Bad_frame "bad magic");
  if v <> version then raise (Bad_frame (Printf.sprintf "version %d" v));
  if len > max_payload then
    raise (Bad_frame (Printf.sprintf "payload length %d exceeds cap" len))

let decode_frame s ~pos =
  if pos + header_size > String.length s then raise Truncated;
  let r = { data = s; pos } in
  let m = String.sub s r.pos 4 in
  r.pos <- r.pos + 4;
  let v = get_u8 r in
  let op = get_u8 r in
  let len = get_u32 r in
  check_header ~m ~v ~len;
  need r len;
  let payload = String.sub s r.pos len in
  ({ op; payload }, r.pos + len)

let frame_of_string s =
  let f, next = decode_frame s ~pos:0 in
  if next <> String.length s then
    raise (Bad_frame (Printf.sprintf "%d trailing bytes" (String.length s - next)));
  f

(* ----------------------------------------------------------- transport *)

(* Block until [fd] is readable or [deadline] (absolute, from
   [Unix.gettimeofday]) passes. EINTR only restarts the wait — the deadline
   is re-derived each time, so a signal storm cannot extend it. *)
let wait_readable fd ~deadline =
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then raise Timeout;
    match Unix.select [ fd ] [] [] remaining with
    | [], _, _ -> raise Timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let really_read ?deadline fd buf ofs len ~at_boundary =
  let got = ref 0 in
  while !got < len do
    Option.iter (fun d -> wait_readable fd ~deadline:d) deadline;
    match Unix.read fd buf (ofs + !got) (len - !got) with
    | 0 ->
      if !got = 0 && at_boundary then raise End_of_file else raise Truncated
    | n -> got := !got + n
    (* a signal mid-read must not desync the stream: retry the same slice *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    (* SO_RCVTIMEO expiry surfaces as EAGAIN/EWOULDBLOCK *)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Timeout
  done

let read_frame ?deadline fd =
  let header = Bytes.create header_size in
  really_read ?deadline fd header 0 header_size ~at_boundary:true;
  let s = Bytes.to_string header in
  let r = { data = s; pos = 4 } in
  let m = String.sub s 0 4 in
  let v = get_u8 r in
  let op = get_u8 r in
  let len = get_u32 r in
  check_header ~m ~v ~len;
  let payload = Bytes.create len in
  if len > 0 then really_read ?deadline fd payload 0 len ~at_boundary:false;
  { op; payload = Bytes.unsafe_to_string payload }

let write_frame fd frame =
  let s = frame_to_string frame in
  let len = String.length s in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write_substring fd s !sent (len - !sent) with
    | 0 ->
      (* a zero-length write makes no progress; wait for writability
         instead of spinning (or, worse, declaring the frame sent) *)
      (try ignore (Unix.select [] [ fd ] [] 0.05)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | n -> sent := !sent + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
