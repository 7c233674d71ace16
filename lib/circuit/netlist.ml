module Ba = Bigarray.Array1

type net = int

type int_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Ba.t
type f64_arr = (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t
type byte_arr = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Ba.t
type char_arr = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Ba.t

(* Struct-of-arrays storage: no per-gate heap records. Gate [g]'s pins live
   in [pins.(pin_off.(g)) .. pins.(pin_off.(g+1)-1)]; net names are packed
   into one blob addressed by [name_off]. The flat arrays are Bigarrays so
   an on-disk snapshot can alias them straight out of an mmap. All arrays
   are immutable after construction — derived lookups (driver ids, fanout
   CSR, topological order) are cached lazily with a benign single-threaded
   race; see {!warm}. *)
type t = {
  nname : string;
  n_gates : int;
  nnet_count : int;
  kind_code : byte_arr;     (* n_gates; Gate.code *)
  strength_arr : f64_arr;   (* n_gates *)
  pin_off : int_arr;        (* n_gates + 1; CSR offsets into pins *)
  pins : int_arr;           (* pin_off.{n_gates} fan-in nets, pin order *)
  out_net : int_arr;        (* n_gates *)
  ninputs : net array;
  noutputs : net array;
  name_off : int_arr;       (* nnet_count + 1; offsets into name_blob *)
  name_blob : char_arr;
  is_input_flag : Bytes.t;  (* nnet_count; '\001' = primary input *)
  is_output_flag : Bytes.t;
  mutable driver_ids : int_arr option;          (* net -> gate id or -1 *)
  mutable fanout_csr : (int_arr * int_arr) option;
  mutable topo_cache : int array option;
}

let name t = t.nname
let net_count t = t.nnet_count
let inputs t = t.ninputs
let outputs t = t.noutputs
let gate_count t = t.n_gates

let net_name t n =
  if n < 0 || n >= t.nnet_count then invalid_arg "Netlist.net_name";
  let off = Ba.get t.name_off n in
  let stop = Ba.get t.name_off (n + 1) in
  String.init (stop - off) (fun i -> Ba.get t.name_blob (off + i))

let add_net_name buf t n =
  if n < 0 || n >= t.nnet_count then invalid_arg "Netlist.add_net_name";
  for i = Ba.get t.name_off n to Ba.get t.name_off (n + 1) - 1 do
    Buffer.add_char buf (Ba.get t.name_blob i)
  done

(* ------------------------------------------- int-indexed gate accessors *)

let check_gate_id t g =
  if g < 0 || g >= t.n_gates then
    invalid_arg (Printf.sprintf "Netlist: gate id %d out of range" g)

let gate_kind_code t g =
  check_gate_id t g;
  Ba.get t.kind_code g

let gate_kind t g = Gate.of_code (gate_kind_code t g)

let gate_strength t g =
  check_gate_id t g;
  Ba.get t.strength_arr g

let gate_arity t g =
  check_gate_id t g;
  Ba.get t.pin_off (g + 1) - Ba.get t.pin_off g

let gate_pin t g p =
  check_gate_id t g;
  let off = Ba.get t.pin_off g in
  if p < 0 || p >= Ba.get t.pin_off (g + 1) - off then
    invalid_arg (Printf.sprintf "Netlist.gate_pin: pin %d of gate %d" p g);
  Ba.get t.pins (off + p)

let gate_out t g =
  check_gate_id t g;
  Ba.get t.out_net g

let iter_pins t g f =
  check_gate_id t g;
  let off = Ba.get t.pin_off g in
  let stop = Ba.get t.pin_off (g + 1) in
  for k = off to stop - 1 do
    f (k - off) (Ba.get t.pins k)
  done

(* ----------------------------------------------------- derived lookups *)

let int_array1 n =
  Ba.create Bigarray.int Bigarray.c_layout (Stdlib.max 0 n)

let build_driver_ids t =
  match t.driver_ids with
  | Some c -> c
  | None ->
    let c = int_array1 t.nnet_count in
    Ba.fill c (-1);
    for g = 0 to t.n_gates - 1 do
      Ba.set c (Ba.get t.out_net g) g
    done;
    t.driver_ids <- Some c;
    c

(* Fanout as CSR adjacency: the gidss for net [n] occupy
   [gids.(off.(n)) .. gids.(off.(n+1)-1)], one entry per reading pin,
   filled in ascending (gate, pin) order — the same observable order as
   the historical per-net list cache. *)
let build_fanout_csr t =
  match t.fanout_csr with
  | Some c -> c
  | None ->
    let n_pins = Ba.get t.pin_off t.n_gates in
    let off = int_array1 (t.nnet_count + 1) in
    Ba.fill off 0;
    for k = 0 to n_pins - 1 do
      let n = Ba.get t.pins k in
      Ba.set off (n + 1) (Ba.get off (n + 1) + 1)
    done;
    for n = 0 to t.nnet_count - 1 do
      Ba.set off (n + 1) (Ba.get off n + Ba.get off (n + 1))
    done;
    let gids = int_array1 n_pins in
    let fill = Array.make (Stdlib.max 1 t.nnet_count) 0 in
    for g = 0 to t.n_gates - 1 do
      for k = Ba.get t.pin_off g to Ba.get t.pin_off (g + 1) - 1 do
        let n = Ba.get t.pins k in
        Ba.set gids (Ba.get off n + fill.(n)) g;
        fill.(n) <- fill.(n) + 1
      done
    done;
    let c = (off, gids) in
    t.fanout_csr <- Some c;
    c

let driver_id t n =
  if n < 0 || n >= t.nnet_count then invalid_arg "Netlist.driver_id";
  Ba.get (build_driver_ids t) n

let iter_fanout t n f =
  if n < 0 || n >= t.nnet_count then invalid_arg "Netlist.iter_fanout";
  let off, gids = build_fanout_csr t in
  for k = Ba.get off n to Ba.get off (n + 1) - 1 do
    f (Ba.get gids k)
  done

let is_input t n = Bytes.get t.is_input_flag n <> '\000'
let is_output t n = Bytes.get t.is_output_flag n <> '\000'

let transistor_count t =
  let acc = ref 0 in
  for g = 0 to t.n_gates - 1 do
    acc := !acc + Gate.transistor_count (gate_kind t g)
  done;
  !acc

(* ------------------------------------------------- topological order *)

let topo_sort_opt t =
  Topo_check.sort_flat ~net_count:t.nnet_count ~n_gates:t.n_gates
    ~source_nets:t.ninputs ~pin_off:t.pin_off ~pins:t.pins ~out_net:t.out_net

let cached_topo_order t =
  match t.topo_cache with
  | Some _ as o -> o
  | None ->
    let o = topo_sort_opt t in
    t.topo_cache <- o;
    o

let topo_ids t =
  match cached_topo_order t with
  | Some o -> o
  | None -> failwith ("Netlist.topo_ids: cycle in " ^ t.nname)

let levelize t =
  Topo_check.levelize_flat ~net_count:t.nnet_count ~n_gates:t.n_gates
    ~source_nets:t.ninputs ~pin_off:t.pin_off ~pins:t.pins ~out_net:t.out_net

let warm t =
  ignore (build_driver_ids t);
  ignore (build_fanout_csr t);
  ignore (cached_topo_order t)

(* --------------------------------------------------------- validation *)

(* The one strength rule for every way a netlist is made: finite and
   positive (NaN fails both comparisons). *)
let valid_strength s = s > 0.0 && s < Float.infinity

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let driver_count = Array.make (Stdlib.max 1 t.nnet_count) 0 in
  for g = 0 to t.n_gates - 1 do
    let o = Ba.get t.out_net g in
    driver_count.(o) <- driver_count.(o) + 1
  done;
  Array.iter (fun n -> driver_count.(n) <- driver_count.(n) + 1) t.ninputs;
  let problem = ref None in
  let record p = if !problem = None then problem := Some p in
  for n = 0 to t.nnet_count - 1 do
    let c = driver_count.(n) in
    if c = 0 then
      record (Printf.sprintf "net %d (%s) has no driver" n (net_name t n))
    else if c > 1 then
      record (Printf.sprintf "net %d (%s) has %d drivers" n (net_name t n) c)
  done;
  for g = 0 to t.n_gates - 1 do
    let pins = gate_arity t g in
    let kind = gate_kind t g in
    if pins <> Gate.arity kind then
      record
        (Printf.sprintf "gate %d (%s) has %d pins, expects %d" g
           (Gate.name kind) pins (Gate.arity kind))
  done;
  match !problem with
  | Some p -> err "%s: %s" t.nname p
  | None ->
    (* the order is cached, so a later [digest] or [topo_ids] reuses it *)
    (match cached_topo_order t with
     | Some _ -> Ok ()
     | None -> err "%s: combinational cycle" t.nname)

(* --------------------------------------------------- raw construction *)

module Repr = struct
  type nonrec int_arr = int_arr
  type nonrec f64_arr = f64_arr
  type nonrec byte_arr = byte_arr
  type nonrec char_arr = char_arr

  type raw = {
    r_name : string;
    r_net_count : int;
    r_kind_code : byte_arr;
    r_strength : f64_arr;
    r_pin_off : int_arr;
    r_pins : int_arr;
    r_out_net : int_arr;
    r_inputs : int array;
    r_outputs : int array;
    r_name_off : int_arr;
    r_name_blob : char_arr;
  }

  let flags net_count which =
    let f = Bytes.make (Stdlib.max 0 net_count) '\000' in
    Array.iter (fun n -> Bytes.set f n '\001') which;
    f

  (* Cheap O(n) structural checks: every index a later access could use is
     proven in range here, so a corrupt snapshot fails with [Failure] —
     never with an out-of-bounds surprise deep inside an estimator. *)
  let check r =
    let fail fmt = Printf.ksprintf failwith fmt in
    let n_gates = Ba.dim r.r_kind_code in
    let nets = r.r_net_count in
    if nets < 0 then fail "Netlist.Repr: negative net count";
    if Ba.dim r.r_strength <> n_gates then
      fail "Netlist.Repr: strength array length mismatch";
    if Ba.dim r.r_out_net <> n_gates then
      fail "Netlist.Repr: out_net array length mismatch";
    if Ba.dim r.r_pin_off <> n_gates + 1 then
      fail "Netlist.Repr: pin_off array length mismatch";
    if Ba.dim r.r_name_off <> nets + 1 then
      fail "Netlist.Repr: name_off array length mismatch";
    if n_gates > 0 || nets > 0 then begin
      if Ba.get r.r_pin_off 0 <> 0 then fail "Netlist.Repr: pin_off.(0) <> 0";
      for g = 0 to n_gates - 1 do
        if Ba.get r.r_pin_off (g + 1) < Ba.get r.r_pin_off g then
          fail "Netlist.Repr: pin_off not monotone at gate %d" g
      done;
      if Ba.get r.r_pin_off n_gates <> Ba.dim r.r_pins then
        fail "Netlist.Repr: pin_off end disagrees with pins length";
      if Ba.get r.r_name_off 0 <> 0 then
        fail "Netlist.Repr: name_off.(0) <> 0";
      for n = 0 to nets - 1 do
        if Ba.get r.r_name_off (n + 1) < Ba.get r.r_name_off n then
          fail "Netlist.Repr: name_off not monotone at net %d" n
      done;
      if Ba.get r.r_name_off nets <> Ba.dim r.r_name_blob then
        fail "Netlist.Repr: name_off end disagrees with blob length"
    end
    else if Ba.dim r.r_pins <> 0 then
      fail "Netlist.Repr: pins without gates";
    for k = 0 to Ba.dim r.r_pins - 1 do
      let n = Ba.get r.r_pins k in
      if n < 0 || n >= nets then fail "Netlist.Repr: pin net %d out of range" n
    done;
    for g = 0 to n_gates - 1 do
      let o = Ba.get r.r_out_net g in
      if o < 0 || o >= nets then
        fail "Netlist.Repr: output net %d out of range" o;
      let code = Ba.get r.r_kind_code g in
      (match Gate.of_code code with
       | exception Invalid_argument _ ->
         fail "Netlist.Repr: gate %d has unknown kind code %d" g code
       | kind ->
         let pins = Ba.get r.r_pin_off (g + 1) - Ba.get r.r_pin_off g in
         if pins <> Gate.arity kind then
           fail "Netlist.Repr: gate %d (%s) has %d pins, expects %d" g
             (Gate.name kind) pins (Gate.arity kind));
      if not (valid_strength (Ba.get r.r_strength g)) then
        fail "Netlist.Repr: gate %d strength is not finite and positive" g
    done;
    Array.iter
      (fun n ->
        if n < 0 || n >= nets then
          fail "Netlist.Repr: input net %d out of range" n)
      r.r_inputs;
    Array.iter
      (fun n ->
        if n < 0 || n >= nets then
          fail "Netlist.Repr: output net %d out of range" n)
      r.r_outputs

  let of_raw ?validate:(do_validate = true) r =
    check r;
    let t =
      {
        nname = r.r_name;
        n_gates = Ba.dim r.r_kind_code;
        nnet_count = r.r_net_count;
        kind_code = r.r_kind_code;
        strength_arr = r.r_strength;
        pin_off = r.r_pin_off;
        pins = r.r_pins;
        out_net = r.r_out_net;
        ninputs = Array.copy r.r_inputs;
        noutputs = Array.copy r.r_outputs;
        name_off = r.r_name_off;
        name_blob = r.r_name_blob;
        is_input_flag = flags r.r_net_count r.r_inputs;
        is_output_flag = flags r.r_net_count r.r_outputs;
        driver_ids = None;
        fanout_csr = None;
        topo_cache = None;
      }
    in
    if do_validate then (
      match validate t with
      | Ok () -> t
      | Error e -> failwith ("Netlist.Repr.of_raw: " ^ e))
    else t

  let to_raw t =
    {
      r_name = t.nname;
      r_net_count = t.nnet_count;
      r_kind_code = t.kind_code;
      r_strength = t.strength_arr;
      r_pin_off = t.pin_off;
      r_pins = t.pins;
      r_out_net = t.out_net;
      r_inputs = t.ninputs;
      r_outputs = t.noutputs;
      r_name_off = t.name_off;
      r_name_blob = t.name_blob;
    }

  let drivers = build_driver_ids
end

(* ---------------------------------------------------- attribute edits *)

let with_kinds_strengths t ~kinds ~strengths =
  if Array.length kinds <> t.n_gates || Array.length strengths <> t.n_gates
  then invalid_arg "Netlist.with_kinds_strengths: gate count mismatch";
  let kind_code =
    Ba.create Bigarray.int8_unsigned Bigarray.c_layout t.n_gates
  in
  let strength_arr =
    Ba.create Bigarray.float64 Bigarray.c_layout t.n_gates
  in
  Array.iteri
    (fun g k ->
      if Gate.arity k <> gate_arity t g then
        failwith
          (Printf.sprintf
             "Netlist.with_kinds_strengths: gate %d retype to %s changes \
              arity" g (Gate.name k));
      Ba.set kind_code g (Gate.code k))
    kinds;
  Array.iteri
    (fun g s ->
      if not (valid_strength s) then
        invalid_arg
          "Netlist.with_kinds_strengths: strength must be finite and positive";
      Ba.set strength_arr g s)
    strengths;
  {
    t with
    kind_code;
    strength_arr;
    driver_ids = None;
    fanout_csr = None;
    topo_cache = None;
  }

(* ---------------------------------------------------------------- digest *)

(* FNV-1a over 64 bits: not cryptographic, but stable across runs and
   platforms, and two independently seeded passes give 128 bits of
   registry-key space — far beyond what a session registry can collide.
   The word and byte steps are inlined, so a loop that calls them keeps its
   running hash unboxed. *)
let fnv_prime = 0x100000001b3L

let[@inline] fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let[@inline] fnv_int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done;
  !h

let fnv_int h v = fnv_int64 h (Int64.of_int v)

type int64_arr = (int64, Bigarray.int64_elt, Bigarray.c_layout) Ba.t

let int64_array1 n : int64_arr = Ba.create Bigarray.int64 Bigarray.c_layout n

(* [Int64.compare] (signed) order is the unsigned order of the keys with
   their sign bit flipped. *)
let[@inline] ukey v = Int64.logxor v Int64.min_int

let[@inline] digit v shift mask =
  Int64.to_int (Int64.shift_right_logical (ukey v) shift) land mask

(* Sort [a.{lo .. hi - 1}] by insertion. *)
let insertion_sort (a : int64_arr) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = Ba.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Ba.unsafe_get a !j > v do
      Ba.unsafe_set a (!j + 1) (Ba.unsafe_get a !j);
      decr j
    done;
    Ba.unsafe_set a (!j + 1) v
  done

(* Stable counting sort of [src.{lo .. hi - 1}] into [dst.{lo .. hi - 1}]
   on the [bits]-bit digit at [shift]; false, and nothing moved, when every
   key shares that digit. *)
let counting_pass count (src : int64_arr) (dst : int64_arr) lo hi shift bits =
  let mask = (1 lsl bits) - 1 in
  Array.fill count 0 (mask + 1) 0;
  for i = lo to hi - 1 do
    let k = digit (Ba.unsafe_get src i) shift mask in
    Array.unsafe_set count k (Array.unsafe_get count k + 1)
  done;
  count.(digit (Ba.unsafe_get src lo) shift mask) < hi - lo
  && begin
    let sum = ref lo in
    for k = 0 to mask do
      let c = Array.unsafe_get count k in
      Array.unsafe_set count k !sum;
      sum := !sum + c
    done;
    for i = lo to hi - 1 do
      let v = Ba.unsafe_get src i in
      let k = digit v shift mask in
      let pos = Array.unsafe_get count k in
      Ba.unsafe_set dst pos v;
      Array.unsafe_set count k (pos + 1)
    done;
    true
  end

(* Sort [a.{lo .. hi - 1}] by LSD counting passes over 12-bit digits, with
   [tmp] as scratch; a pass whose digit every key shares is skipped. *)
let sort_lsd count (a : int64_arr) (tmp : int64_arr) lo hi =
  let src = ref a and dst = ref tmp in
  List.iter
    (fun shift ->
      if counting_pass count !src !dst lo hi shift 12 then begin
        let s = !src in
        src := !dst;
        dst := s
      end)
    [ 0; 12; 24; 36; 48; 60 ];
  if !src != a then Ba.blit (Ba.sub !src lo (hi - lo)) (Ba.sub a lo (hi - lo))

(* How many top bits the bucket pass of [n] keys spreads them over: about
   eight keys a bucket, at most 65536 buckets. *)
let bucket_bits n =
  let b = ref 1 in
  while !b < 16 && 8 lsl !b < n do
    incr b
  done;
  !b

(* Sort [a.{0 .. n - 1}] in [Int64.compare] order, with [tmp] (at least
   [n] long) as scratch, [count] at least [1 lsl bucket_bits n] long and
   [sub] 4096 long. One counting pass on the top bits spreads the keys over
   buckets in [tmp]; a bucket of at most 32 keys (nearly every bucket, for
   hashed labels) then sorts by insertion, and a larger one by
   [sort_lsd]. Equal multisets sort to equal arrays, so the digest does
   not depend on how they were sorted. *)
let sort_int64 (a : int64_arr) n (tmp : int64_arr) ~count ~sub =
  let bits = bucket_bits n in
  if n <= 32 then insertion_sort a 0 n
  else if counting_pass count a tmp 0 n (64 - bits) bits then begin
    (* [count.(k)] is now the end of bucket [k] in [tmp] *)
    let lo = ref 0 in
    for k = 0 to (1 lsl bits) - 1 do
      let hi = count.(k) in
      if hi - !lo <= 32 then insertion_sort tmp !lo hi
      else sort_lsd sub tmp a !lo hi;
      lo := hi
    done;
    Ba.blit (Ba.sub tmp 0 n) (Ba.sub a 0 n)
  end
  else sort_lsd count a tmp 0 n

(* The digest's two seeds. *)
let seed1 = 0xcbf29ce484222325L
let seed2 = 0x6c62272e07bb0142L

(* Label every net bottom-up over a topological [order] — primary inputs by
   their (interface) name, every driven net by the shape of its driver
   (kind, strength, fan-in labels in pin order) — then hash the *sorted*
   label multisets. Sorting is what makes the digest canonical: gate ids,
   net numbering and declaration order all disappear, only structure and
   the interface names survive.

   Both seeded passes run in the same loops: their FNV chains are
   independent, so the processor overlaps them, and they share one set of
   arrays made once per call. Labels live in unboxed int64 Bigarrays and
   sort in place, and the running hashes stay unboxed, so no label is
   allocated on the heap. A gate's label starts from the hash of the seed,
   its kind and its strength; that prefix is computed once per kind and
   strength run, the memo holding each kind's last strength. *)
let digest t =
  let order =
    match cached_topo_order t with
    | Some o -> o
    | None -> invalid_arg "Netlist.digest: not a valid DAG"
  in
  let n_in = Array.length t.ninputs and n_out = Array.length t.noutputs in
  (* each net-label array is also a gate-label array's sort scratch *)
  let n_labels = Stdlib.max t.nnet_count (Stdlib.max t.n_gates (Stdlib.max n_in n_out)) in
  let labels1 = int64_array1 n_labels and labels2 = int64_array1 n_labels in
  let gates1 = int64_array1 t.n_gates and gates2 = int64_array1 t.n_gates in
  Ba.fill labels1 0L;
  Ba.fill labels2 0L;
  let input1 = fnv_byte seed1 (Char.code 'I') and input2 = fnv_byte seed2 (Char.code 'I') in
  Array.iter
    (fun n ->
      let off = Ba.get t.name_off n and stop = Ba.get t.name_off (n + 1) in
      let h1 = ref (fnv_int input1 (stop - off)) and h2 = ref (fnv_int input2 (stop - off)) in
      for i = off to stop - 1 do
        let b = Char.code (Ba.get t.name_blob i) in
        h1 := fnv_byte !h1 b;
        h2 := fnv_byte !h2 b
      done;
      Ba.set labels1 n !h1;
      Ba.set labels2 n !h2)
    t.ninputs;
  let gate1 = fnv_byte seed1 (Char.code 'G') and gate2 = fnv_byte seed2 (Char.code 'G') in
  (* per kind code (a byte): the strength last seen and the prefixes *)
  let memo_set = Bytes.make 256 '\000' and memo_bits = int64_array1 256 in
  let memo1 = int64_array1 256 and memo2 = int64_array1 256 in
  for i = 0 to Array.length order - 1 do
    let gi = order.(i) in
    let code = Ba.get t.kind_code gi in
    let bits = Int64.bits_of_float (Ba.get t.strength_arr gi) in
    if Bytes.get memo_set code = '\000' || Ba.get memo_bits code <> bits then begin
      let kind = Int64.of_int code in
      Ba.set memo1 code (fnv_int64 (fnv_int64 gate1 kind) bits);
      Ba.set memo2 code (fnv_int64 (fnv_int64 gate2 kind) bits);
      Ba.set memo_bits code bits;
      Bytes.set memo_set code '\001'
    end;
    let h1 = ref (Ba.get memo1 code) and h2 = ref (Ba.get memo2 code) in
    for k = Ba.get t.pin_off gi to Ba.get t.pin_off (gi + 1) - 1 do
      let net = Ba.get t.pins k in
      h1 := fnv_int64 !h1 (Ba.get labels1 net);
      h2 := fnv_int64 !h2 (Ba.get labels2 net)
    done;
    let out = Ba.get t.out_net gi in
    Ba.set labels1 out !h1;
    Ba.set labels2 out !h2;
    Ba.set gates1 gi !h1;
    Ba.set gates2 gi !h2
  done;
  let interface labels nets =
    let a = int64_array1 (Array.length nets) in
    Array.iteri (fun i n -> Ba.set a i (Ba.get labels n)) nets;
    a
  in
  let in1 = interface labels1 t.ninputs and in2 = interface labels2 t.ninputs in
  let out1 = interface labels1 t.noutputs and out2 = interface labels2 t.noutputs in
  let longest = Stdlib.max t.n_gates (Stdlib.max n_in n_out) in
  let count = Array.make (Stdlib.max 4096 (1 lsl bucket_bits longest)) 0 in
  let sub = Array.make 4096 0 in
  let fold_sorted (h1, h2) a1 a2 =
    let n = Ba.dim a1 in
    sort_int64 a1 n labels1 ~count ~sub;
    sort_int64 a2 n labels2 ~count ~sub;
    let h1 = ref h1 and h2 = ref h2 in
    for i = 0 to n - 1 do
      h1 := fnv_int64 !h1 (Ba.get a1 i);
      h2 := fnv_int64 !h2 (Ba.get a2 i)
    done;
    (!h1, !h2)
  in
  let start seed = fnv_int (fnv_int (fnv_int seed t.n_gates) n_in) n_out in
  let h = fold_sorted (start seed1, start seed2) gates1 gates2 in
  let h = fold_sorted h in1 in2 in
  let h1, h2 = fold_sorted h out1 out2 in
  Printf.sprintf "%016Lx%016Lx" h1 h2

type stats = {
  n_gates : int;
  n_nets : int;
  n_inputs : int;
  n_outputs : int;
  n_transistors : int;
  max_fanout : int;
  avg_fanout : float;
  levels : int;
  kind_histogram : (string * int) list;
}

let stats t =
  let off, _ = build_fanout_csr t in
  let max_fanout = ref 0 and total_fanout = ref 0 in
  for n = 0 to t.nnet_count - 1 do
    let d = Ba.get off (n + 1) - Ba.get off n in
    if d > !max_fanout then max_fanout := d;
    total_fanout := !total_fanout + d
  done;
  let histogram = Hashtbl.create 16 in
  for g = 0 to t.n_gates - 1 do
    let k = Gate.name (gate_kind t g) in
    Hashtbl.replace histogram k
      (1 + Option.value ~default:0 (Hashtbl.find_opt histogram k))
  done;
  let kind_histogram =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) histogram []
    |> List.sort compare
  in
  let levels =
    match levelize t with
    | Some l -> Array.fold_left Stdlib.max 0 l
    | None -> -1
  in
  {
    n_gates = t.n_gates;
    n_nets = t.nnet_count;
    n_inputs = Array.length t.ninputs;
    n_outputs = Array.length t.noutputs;
    n_transistors = transistor_count t;
    max_fanout = !max_fanout;
    avg_fanout =
      (if t.nnet_count = 0 then 0.0
       else float_of_int !total_fanout /. float_of_int t.nnet_count);
    levels;
    kind_histogram;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "gates=%d nets=%d PI=%d PO=%d transistors=%d levels=%d maxFO=%d avgFO=%.2f@ "
    s.n_gates s.n_nets s.n_inputs s.n_outputs s.n_transistors s.levels
    s.max_fanout s.avg_fanout;
  List.iter (fun (k, c) -> Format.fprintf ppf "%s:%d " k c) s.kind_histogram

module Builder = struct
  (* Every per-net, per-gate and per-pin buffer is a Bigarray of the
     netlist's own element type, grown by doubling (a blit per doubling), so
     [finish] hands each buffer to the netlist as it is, copying nothing. *)
  type builder = {
    bname : string;
    mutable names : char_arr;     (* packed net-name blob, [names_len] used *)
    mutable names_len : int;
    mutable bname_off : int_arr;  (* net_count + 1 offsets into [names] *)
    mutable bnet_count : int;
    mutable bkinds : byte_arr;    (* gate_count used *)
    mutable bstrengths : f64_arr;
    mutable bouts : int_arr;
    mutable bpin_off : int_arr;   (* gate_count + 1 offsets into [bpins] *)
    mutable bpins : int_arr;
    mutable bgate_count : int;
    binputs : Vec.t;
    boutputs : Vec.t;
    mutable output_flag : Bytes.t;  (* dedup for mark_output *)
  }

  type t = builder

  (* [a] with room for [need] elements, its first [used] kept. *)
  let reserve a used need =
    if need <= Ba.dim a then a
    else begin
      let b =
        Ba.create (Ba.kind a) Bigarray.c_layout
          (Stdlib.max need (2 * Ba.dim a))
      in
      Ba.blit (Ba.sub a 0 used) (Ba.sub b 0 used);
      b
    end

  (* The first [len] elements of [a]: a view, not a copy. A copy into an
     exact-size array leaves the buffer behind as garbage outside the OCaml
     heap (fig12-cold's peak RSS read 1.9 MB higher with copies, on a 2-core
     host); the view keeps only the buffer's unwritten tail. Later pushes
     write past the view, so it never changes. *)
  let used a len = if Ba.dim a = len then a else Ba.sub a 0 len

  (* Net, gate and pin buffers all start at [size], the name blob at eight
     bytes a net; the interface lists stay small. *)
  let create ?(size = 16) bname =
    let n = Stdlib.max 16 size in
    let offsets () =
      let a = int_array1 (n + 1) in
      Ba.set a 0 0;
      a
    in
    {
      bname;
      names = Ba.create Bigarray.char Bigarray.c_layout (8 * n);
      names_len = 0;
      bname_off = offsets ();
      bnet_count = 0;
      bkinds = Ba.create Bigarray.int8_unsigned Bigarray.c_layout n;
      bstrengths = Ba.create Bigarray.float64 Bigarray.c_layout n;
      bouts = int_array1 n;
      bpin_off = offsets ();
      bpins = int_array1 n;
      bgate_count = 0;
      binputs = Vec.create 16;
      boutputs = Vec.create 16;
      output_flag = Bytes.make n '\000';
    }

  let rec decimal_digits v = if v < 10 then 1 else 1 + decimal_digits (v / 10)

  (* Room for [len] more name bytes; returns where they start. *)
  let name_room b len =
    let at = b.names_len in
    b.names <- reserve b.names at (at + len);
    b.names_len <- at + len;
    at

  let fresh_net b name_opt =
    let id = b.bnet_count in
    (match name_opt with
     | Some s ->
       let at = name_room b (String.length s) in
       for i = 0 to String.length s - 1 do
         Ba.set b.names (at + i) (String.unsafe_get s i)
       done
     | None ->
       (* "n<id>", written digit by digit *)
       let digits = decimal_digits id in
       let at = name_room b (1 + digits) in
       Ba.set b.names at 'n';
       let v = ref id in
       for i = digits downto 1 do
         Ba.set b.names (at + i) (Char.unsafe_chr (48 + (!v mod 10)));
         v := !v / 10
       done);
    b.bname_off <- reserve b.bname_off (id + 1) (id + 2);
    Ba.set b.bname_off (id + 1) b.names_len;
    b.bnet_count <- id + 1;
    if id >= Bytes.length b.output_flag then begin
      let f = Bytes.make (2 * Bytes.length b.output_flag) '\000' in
      Bytes.blit b.output_flag 0 f 0 (Bytes.length b.output_flag);
      b.output_flag <- f
    end;
    id

  let input ?name b =
    let n = fresh_net b name in
    Vec.push b.binputs n;
    n

  let gate ?name ?(strength = 1.0) b kind fan_in =
    if not (valid_strength strength) then
      invalid_arg "Builder.gate: strength must be finite and positive";
    let arity = Array.length fan_in in
    if arity <> Gate.arity kind then
      invalid_arg
        (Printf.sprintf "Builder.gate: %s expects %d inputs, got %d"
           (Gate.name kind) (Gate.arity kind) arity);
    for i = 0 to arity - 1 do
      let n = fan_in.(i) in
      if n < 0 || n >= b.bnet_count then
        invalid_arg (Printf.sprintf "Builder.gate: unknown net %d" n)
    done;
    let out = fresh_net b name in
    let g = b.bgate_count in
    b.bkinds <- reserve b.bkinds g (g + 1);
    b.bstrengths <- reserve b.bstrengths g (g + 1);
    b.bouts <- reserve b.bouts g (g + 1);
    b.bpin_off <- reserve b.bpin_off (g + 1) (g + 2);
    let p0 = Ba.get b.bpin_off g in
    b.bpins <- reserve b.bpins p0 (p0 + arity);
    for i = 0 to arity - 1 do
      Ba.set b.bpins (p0 + i) fan_in.(i)
    done;
    Ba.set b.bkinds g (Gate.code kind);
    Ba.set b.bstrengths g strength;
    Ba.set b.bouts g out;
    Ba.set b.bpin_off (g + 1) (p0 + arity);
    b.bgate_count <- g + 1;
    out

  let mark_output b n =
    if n < 0 || n >= b.bnet_count then
      invalid_arg "Builder.mark_output: unknown net";
    if Bytes.get b.output_flag n = '\000' then begin
      Bytes.set b.output_flag n '\001';
      Vec.push b.boutputs n
    end

  let net_count b = b.bnet_count
  let gate_count b = b.bgate_count

  let finish b =
    let n_gates = b.bgate_count and nets = b.bnet_count in
    let ninputs = Array.sub b.binputs.Vec.a 0 b.binputs.Vec.len in
    let noutputs = Array.sub b.boutputs.Vec.a 0 b.boutputs.Vec.len in
    let flags which =
      let f = Bytes.make (Stdlib.max 1 nets) '\000' in
      Array.iter (fun n -> Bytes.set f n '\001') which;
      f
    in
    let t =
      {
        nname = b.bname;
        n_gates;
        nnet_count = nets;
        kind_code = used b.bkinds n_gates;
        strength_arr = used b.bstrengths n_gates;
        pin_off = used b.bpin_off (n_gates + 1);
        pins = used b.bpins (Ba.get b.bpin_off n_gates);
        out_net = used b.bouts n_gates;
        ninputs;
        noutputs;
        name_off = used b.bname_off (nets + 1);
        name_blob = used b.names b.names_len;
        is_input_flag = flags ninputs;
        is_output_flag = flags noutputs;
        driver_ids = None;
        fanout_csr = None;
        topo_cache = None;
      }
    in
    match validate t with
    | Ok () -> t
    | Error e -> failwith ("Netlist.Builder.finish: " ^ e)
end
