exception Snapshot_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Snapshot_error s)) fmt

let page = 4096
let align n = (n + page - 1) / page * page
let magic = "LKN1"
let version = 1

(* header field offsets (all fixed; header occupies the first page) *)
let off_counts = 8
let off_digest = 72
let off_checksum = 104
let header_hashed = off_checksum (* bytes 0..103 are covered by the checksum *)

let fnv1a bytes len =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get bytes i))))
        0x100000001b3L
  done;
  !h

type layout = {
  n_gates : int;
  net_count : int;
  n_pins : int;
  blob_len : int;
  n_inputs : int;
  n_outputs : int;
  name_len : int;
  meta_off : int;
  kind_off : int;
  strength_off : int;
  pin_off_off : int;
  pins_off : int;
  out_off : int;
  name_off_off : int;
  blob_off : int;
  total : int;
}

let layout ~n_gates ~net_count ~n_pins ~blob_len ~n_inputs ~n_outputs
    ~name_len =
  let meta_off = page in
  let meta_len = name_len + (8 * (n_inputs + n_outputs)) in
  let kind_off = align (meta_off + meta_len) in
  let strength_off = align (kind_off + n_gates) in
  let pin_off_off = align (strength_off + (8 * n_gates)) in
  let pins_off = align (pin_off_off + (8 * (n_gates + 1))) in
  let out_off = align (pins_off + (8 * n_pins)) in
  let name_off_off = align (out_off + (8 * n_gates)) in
  let blob_off = align (name_off_off + (8 * (net_count + 1))) in
  let total = align (blob_off + blob_len) in
  { n_gates; net_count; n_pins; blob_len; n_inputs; n_outputs; name_len;
    meta_off; kind_off; strength_off; pin_off_off; pins_off; out_off;
    name_off_off; blob_off; total }

(* ------------------------------------------------------------- save *)

let zeros = Bytes.make page '\000'

let pad_to oc target =
  let here = pos_out oc in
  assert (here <= target);
  let rec go n =
    if n > 0 then begin
      let k = Stdlib.min n page in
      output oc zeros 0 k;
      go (n - k)
    end
  in
  go (target - here)

let chunk_elems = 8192
let chunk = Bytes.create (8 * chunk_elems)

let write_ints oc (a : Netlist.Repr.int_arr) =
  let n = Bigarray.Array1.dim a in
  let i = ref 0 in
  while !i < n do
    let k = Stdlib.min chunk_elems (n - !i) in
    for j = 0 to k - 1 do
      Bytes.set_int64_le chunk (8 * j) (Int64.of_int a.{!i + j})
    done;
    output oc chunk 0 (8 * k);
    i := !i + k
  done

let write_floats oc (a : Netlist.Repr.f64_arr) =
  let n = Bigarray.Array1.dim a in
  let i = ref 0 in
  while !i < n do
    let k = Stdlib.min chunk_elems (n - !i) in
    for j = 0 to k - 1 do
      Bytes.set_int64_le chunk (8 * j) (Int64.bits_of_float a.{!i + j})
    done;
    output oc chunk 0 (8 * k);
    i := !i + k
  done

let write_bytes8 oc (a : Netlist.Repr.byte_arr) =
  let n = Bigarray.Array1.dim a in
  let i = ref 0 in
  while !i < n do
    let k = Stdlib.min (8 * chunk_elems) (n - !i) in
    for j = 0 to k - 1 do
      Bytes.set chunk j (Char.chr a.{!i + j})
    done;
    output oc chunk 0 k;
    i := !i + k
  done

let write_chars oc (a : Netlist.Repr.char_arr) =
  let n = Bigarray.Array1.dim a in
  let i = ref 0 in
  while !i < n do
    let k = Stdlib.min (8 * chunk_elems) (n - !i) in
    for j = 0 to k - 1 do
      Bytes.set chunk j a.{!i + j}
    done;
    output oc chunk 0 k;
    i := !i + k
  done

let save path t =
  let r = Netlist.Repr.to_raw t in
  let open Netlist.Repr in
  let l =
    layout
      ~n_gates:(Bigarray.Array1.dim r.r_kind_code)
      ~net_count:r.r_net_count
      ~n_pins:(Bigarray.Array1.dim r.r_pins)
      ~blob_len:(Bigarray.Array1.dim r.r_name_blob)
      ~n_inputs:(Array.length r.r_inputs)
      ~n_outputs:(Array.length r.r_outputs)
      ~name_len:(String.length r.r_name)
  in
  let digest = Netlist.digest t in
  assert (String.length digest = 32);
  let hdr = Bytes.make page '\000' in
  Bytes.blit_string magic 0 hdr 0 4;
  Bytes.set hdr 4 (Char.chr version);
  Bytes.set hdr 5 (Char.chr 8);
  Bytes.set hdr 6 (if Sys.big_endian then '\002' else '\001');
  List.iteri
    (fun i v -> Bytes.set_int64_le hdr (off_counts + (8 * i)) (Int64.of_int v))
    [ l.n_gates; l.net_count; l.n_pins; l.blob_len; l.n_inputs; l.n_outputs;
      l.name_len; l.total ];
  Bytes.blit_string digest 0 hdr off_digest 32;
  Bytes.set_int64_le hdr off_checksum (fnv1a hdr header_hashed);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_bytes oc hdr;
      (* meta: netlist name, then PI / PO net ids *)
      output_string oc r.r_name;
      let b8 = Bytes.create 8 in
      let put_i v =
        Bytes.set_int64_le b8 0 (Int64.of_int v);
        output_bytes oc b8
      in
      Array.iter put_i r.r_inputs;
      Array.iter put_i r.r_outputs;
      pad_to oc l.kind_off;
      write_bytes8 oc r.r_kind_code;
      pad_to oc l.strength_off;
      write_floats oc r.r_strength;
      pad_to oc l.pin_off_off;
      write_ints oc r.r_pin_off;
      pad_to oc l.pins_off;
      write_ints oc r.r_pins;
      pad_to oc l.out_off;
      write_ints oc r.r_out_net;
      pad_to oc l.name_off_off;
      write_ints oc r.r_name_off;
      pad_to oc l.blob_off;
      write_chars oc r.r_name_blob;
      pad_to oc l.total)

(* ------------------------------------------------------------- load *)

let read_exactly fd buf len what =
  let got = ref 0 in
  (try
     while !got < len do
       let k = Unix.read fd buf !got (len - !got) in
       if k = 0 then raise Exit;
       got := !got + k
     done
   with Exit -> ());
  if !got <> len then err "snapshot: truncated %s (%d of %d bytes)" what !got len

let count_field hdr i what =
  let v = Bytes.get_int64_le hdr (off_counts + (8 * i)) in
  (* Reject anything that could overflow the layout arithmetic long before
     it could become a bad mmap length. *)
  if Int64.compare v 0L < 0 || Int64.compare v 0x0000_4000_0000_0000L > 0 then
    err "snapshot: implausible %s (%Ld)" what v;
  Int64.to_int v

let map_section (type a b) fd ~pos ~len (kind : (a, b) Bigarray.kind) :
    (a, b, Bigarray.c_layout) Bigarray.Array1.t =
  if len = 0 then Bigarray.Array1.create kind Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout false
         [| len |])

(* Open [path] read-only for [f]; the descriptor is closed on any exit. *)
let with_file path f =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      err "snapshot: cannot open %s: %s" path (Unix.error_message e)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

type header = {
  hdr : Bytes.t;      (* the header page, checksum field zeroed *)
  file_size : int;
  digest : string;    (* 32 lowercase hex chars *)
}

(* Every check that needs only the header page: magic, version, word size,
   endianness, checksum and a hex digest. [load] and [digest_of_file] both
   read the header here, so no header passes one and fails the other. *)
let read_header fd path =
  let file_size = (Unix.fstat fd).Unix.st_size in
  if file_size < page then
    err "snapshot: %s is too small to hold an LKN1 header" path;
  let hdr = Bytes.create page in
  read_exactly fd hdr page "header";
  if Bytes.sub_string hdr 0 4 <> magic then
    err "snapshot: %s is not an LKN1 file (bad magic)" path;
  if Char.code (Bytes.get hdr 4) <> version then
    err "snapshot: unsupported LKN1 version %d" (Char.code (Bytes.get hdr 4));
  if Char.code (Bytes.get hdr 5) <> 8 then
    err "snapshot: word size %d, need 8" (Char.code (Bytes.get hdr 5));
  let endian_tag = if Sys.big_endian then '\002' else '\001' in
  if Bytes.get hdr 6 <> endian_tag then
    err "snapshot: endianness mismatch (snapshot written on a %s-endian host)"
      (if Bytes.get hdr 6 = '\002' then "big" else "little");
  let stored_sum = Bytes.get_int64_le hdr off_checksum in
  Bytes.set_int64_le hdr off_checksum 0L;
  if not (Int64.equal stored_sum (fnv1a hdr header_hashed)) then
    err "snapshot: header checksum mismatch (corrupt file)";
  let digest = Bytes.sub_string hdr off_digest 32 in
  String.iter
    (function
      | '0' .. '9' | 'a' .. 'f' -> ()
      | _ -> err "snapshot: malformed digest in header")
    digest;
  { hdr; file_size; digest }

let load ?(verify = true) path =
  (* The mappings survive the close: mmap keeps the pages alive. *)
  with_file path (fun fd ->
      let { hdr; file_size; digest } = read_header fd path in
      let n_gates = count_field hdr 0 "gate count" in
      let net_count = count_field hdr 1 "net count" in
      let n_pins = count_field hdr 2 "pin count" in
      let blob_len = count_field hdr 3 "name-blob length" in
      let n_inputs = count_field hdr 4 "input count" in
      let n_outputs = count_field hdr 5 "output count" in
      let name_len = count_field hdr 6 "name length" in
      let declared_total = count_field hdr 7 "file size" in
      let l =
        layout ~n_gates ~net_count ~n_pins ~blob_len ~n_inputs ~n_outputs
          ~name_len
      in
      (* Fail closed on size before any mapping is dereferenced: a short
         file must raise here, never SIGBUS through a too-long mapping. *)
      if declared_total <> l.total then
        err "snapshot: header size field (%d) disagrees with section layout (%d)"
          declared_total l.total;
      if file_size <> l.total then
        err "snapshot: %s is %d bytes, layout requires %d (truncated or padded)"
          path file_size l.total;
      (* meta section: read (not mapped — it is small and unaligned) *)
      let meta_len = name_len + (8 * (n_inputs + n_outputs)) in
      let meta = Bytes.create meta_len in
      ignore (Unix.lseek fd l.meta_off Unix.SEEK_SET);
      read_exactly fd meta meta_len "metadata section";
      let r_name = Bytes.sub_string meta 0 name_len in
      let net_id i =
        let v = Bytes.get_int64_le meta (name_len + (8 * i)) in
        if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int net_count) >= 0
        then err "snapshot: interface net id %Ld out of range" v;
        Int64.to_int v
      in
      let r_inputs = Array.init n_inputs net_id in
      let r_outputs = Array.init n_outputs (fun i -> net_id (n_inputs + i)) in
      let open Netlist.Repr in
      let raw =
        {
          r_name;
          r_net_count = net_count;
          r_kind_code =
            map_section fd ~pos:l.kind_off ~len:n_gates Bigarray.int8_unsigned;
          r_strength =
            map_section fd ~pos:l.strength_off ~len:n_gates Bigarray.float64;
          r_pin_off =
            map_section fd ~pos:l.pin_off_off ~len:(n_gates + 1) Bigarray.int;
          r_pins = map_section fd ~pos:l.pins_off ~len:n_pins Bigarray.int;
          r_out_net = map_section fd ~pos:l.out_off ~len:n_gates Bigarray.int;
          r_inputs;
          r_outputs;
          r_name_off =
            map_section fd ~pos:l.name_off_off ~len:(net_count + 1) Bigarray.int;
          r_name_blob =
            map_section fd ~pos:l.blob_off ~len:blob_len Bigarray.char;
        }
      in
      let t =
        try Netlist.Repr.of_raw ~validate:verify raw
        with Failure msg -> err "snapshot: %s: %s" path msg
      in
      if verify && not (String.equal (Netlist.digest t) digest) then
        err "snapshot: digest mismatch in %s (file corrupt or tampered)" path;
      t)

let digest_of_file path = with_file path (fun fd -> (read_header fd path).digest)
