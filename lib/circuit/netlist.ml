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
    ~source_nets:t.ninputs
    ~fanin_count:(fun g -> Ba.get t.pin_off (g + 1) - Ba.get t.pin_off g)
    ~fanin:(fun g p -> Ba.get t.pins (Ba.get t.pin_off g + p))
    ~gate_out:(fun g -> Ba.get t.out_net g)

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
    ~source_nets:t.ninputs
    ~fanin_count:(fun g -> Ba.get t.pin_off (g + 1) - Ba.get t.pin_off g)
    ~fanin:(fun g p -> Ba.get t.pins (Ba.get t.pin_off g + p))
    ~gate_out:(fun g -> Ba.get t.out_net g)

let warm t =
  ignore (build_driver_ids t);
  ignore (build_fanout_csr t);
  ignore (cached_topo_order t)

(* --------------------------------------------------------- validation *)

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
    (match topo_sort_opt t with
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
      let s = Ba.get r.r_strength g in
      if not (s > 0.0) then
        fail "Netlist.Repr: gate %d has non-positive strength" g
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
      r_inputs = Array.copy t.ninputs;
      r_outputs = Array.copy t.noutputs;
      r_name_off = t.name_off;
      r_name_blob = t.name_blob;
    }
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
      if s <= 0.0 then
        invalid_arg "Netlist.with_kinds_strengths: strength must be positive";
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
   registry-key space — far beyond what a session registry can collide. *)
let fnv_prime = 0x100000001b3L

let fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv_int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done;
  !h

let fnv_int h v = fnv_int64 h (Int64.of_int v)

let fnv_string h s =
  let h = ref (fnv_int h (String.length s)) in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

type int64_arr = (int64, Bigarray.int64_elt, Bigarray.c_layout) Ba.t

let int64_array1 n : int64_arr =
  let a = Ba.create Bigarray.int64 Bigarray.c_layout n in
  Ba.fill a 0L;
  a

(* In-place introsort in [Int64.compare] (signed) order: quicksort around
   a median of three, insertion sort on short ranges, and heapsort on any
   range that recurses too deep, so the cost stays O(n log n) whatever
   labels a netlist produces. Allocates nothing. *)
let sort_int64 (a : int64_arr) =
  let swap i j =
    let x = Ba.get a i in
    Ba.set a i (Ba.get a j);
    Ba.set a j x
  in
  let rec sift lo root hi =
    let child = lo + (2 * (root - lo)) + 1 in
    if child < hi then begin
      let child =
        if child + 1 < hi && Ba.get a child < Ba.get a (child + 1) then
          child + 1
        else child
      in
      if Ba.get a root < Ba.get a child then begin
        swap root child;
        sift lo child hi
      end
    end
  in
  let heapsort lo hi =
    for root = lo + ((hi - lo) / 2) - 1 downto lo do
      sift lo root hi
    done;
    for last = hi - 1 downto lo + 1 do
      swap lo last;
      sift lo lo last
    done
  in
  let insertion lo hi =
    for i = lo + 1 to hi - 1 do
      let x = Ba.get a i in
      let j = ref (i - 1) in
      while !j >= lo && Ba.get a !j > x do
        Ba.set a (!j + 1) (Ba.get a !j);
        decr j
      done;
      Ba.set a (!j + 1) x
    done
  in
  (* sorts a.(lo .. hi-1) *)
  let rec sort lo hi depth =
    if hi - lo <= 16 then insertion lo hi
    else if depth = 0 then heapsort lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if Ba.get a mid < Ba.get a lo then swap mid lo;
      if Ba.get a (hi - 1) < Ba.get a lo then swap (hi - 1) lo;
      if Ba.get a (hi - 1) < Ba.get a mid then swap (hi - 1) mid;
      let pivot = Ba.get a mid in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while Ba.get a !i < pivot do incr i done;
        while Ba.get a !j > pivot do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      sort lo (!j + 1) (depth - 1);
      sort !i hi (depth - 1)
    end
  in
  let n = Ba.dim a in
  let rec log2 k = if k <= 1 then 0 else 1 + log2 (k / 2) in
  sort 0 n (2 * log2 n)

(* One digest pass over a topological [order]: label every net bottom-up —
   primary inputs by their (interface) name, every driven net by the shape
   of its driver (kind, strength, fan-in labels in pin order) — then hash
   the *sorted* label multisets. Sorting is what makes the digest
   canonical: gate ids, net numbering and declaration order all disappear,
   only structure and the interface names survive. Labels live in unboxed
   int64 Bigarrays and sort in place, so a pass leaves no boxed label
   behind for the major heap. *)
let digest_with seed order t =
  let labels = int64_array1 t.nnet_count in
  Array.iter
    (fun n ->
      Ba.set labels n
        (fnv_string (fnv_byte seed (Char.code 'I')) (net_name t n)))
    t.ninputs;
  let gate_labels = int64_array1 t.n_gates in
  Array.iter
    (fun gi ->
      let h = fnv_byte seed (Char.code 'G') in
      let h = fnv_int h (Ba.get t.kind_code gi) in
      let h = fnv_int64 h (Int64.bits_of_float (Ba.get t.strength_arr gi)) in
      let h = ref h in
      for k = Ba.get t.pin_off gi to Ba.get t.pin_off (gi + 1) - 1 do
        (* [fnv_int64] spelled out, so the hot loop keeps [h] unboxed *)
        let v = Ba.get labels (Ba.get t.pins k) in
        for shift = 0 to 7 do
          h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
        done
      done;
      Ba.set labels (Ba.get t.out_net gi) !h;
      Ba.set gate_labels gi !h)
    order;
  let fold_sorted h a =
    sort_int64 a;
    let h = ref h in
    for i = 0 to Ba.dim a - 1 do
      h := fnv_int64 !h (Ba.get a i)
    done;
    !h
  in
  let labels_of nets =
    let a = int64_array1 (Array.length nets) in
    Array.iteri (fun i n -> Ba.set a i (Ba.get labels n)) nets;
    a
  in
  let h = fnv_int seed t.n_gates in
  let h = fnv_int h (Array.length t.ninputs) in
  let h = fnv_int h (Array.length t.noutputs) in
  let h = fold_sorted h gate_labels in
  let h = fold_sorted h (labels_of t.ninputs) in
  let h = fold_sorted h (labels_of t.noutputs) in
  h

let digest t =
  let order =
    match cached_topo_order t with
    | Some o -> o
    | None -> invalid_arg "Netlist.digest: not a valid DAG"
  in
  Printf.sprintf "%016Lx%016Lx"
    (digest_with 0xcbf29ce484222325L order t)
    (digest_with 0x6c62272e07bb0142L order t)

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
  (* Growable flat buffers — amortized O(1) append, no per-gate records. *)
  type ivec = { mutable ia : int array; mutable ilen : int }
  type fvec = { mutable fa : float array; mutable flen : int }

  let ivec () = { ia = Array.make 16 0; ilen = 0 }
  let fvec () = { fa = Array.make 16 0.0; flen = 0 }

  let ipush v x =
    if v.ilen = Array.length v.ia then begin
      let a = Array.make (2 * v.ilen) 0 in
      Array.blit v.ia 0 a 0 v.ilen;
      v.ia <- a
    end;
    v.ia.(v.ilen) <- x;
    v.ilen <- v.ilen + 1

  let fpush v x =
    if v.flen = Array.length v.fa then begin
      let a = Array.make (2 * v.flen) 0.0 in
      Array.blit v.fa 0 a 0 v.flen;
      v.fa <- a
    end;
    v.fa.(v.flen) <- x;
    v.flen <- v.flen + 1

  type builder = {
    bname : string;
    names : Buffer.t;          (* packed net-name blob *)
    bname_off : ivec;          (* net_count entries; end implied by blob *)
    mutable bnet_count : int;
    bkinds : ivec;
    bstrengths : fvec;
    bpin_off : ivec;           (* gate_count entries; starts at 0 implied *)
    bpins : ivec;
    bouts : ivec;
    binputs : ivec;
    boutputs : ivec;
    mutable output_flag : Bytes.t;  (* dedup for mark_output *)
  }

  type t = builder

  let create bname =
    {
      bname;
      names = Buffer.create 256;
      bname_off = ivec ();
      bnet_count = 0;
      bkinds = ivec ();
      bstrengths = fvec ();
      bpin_off = ivec ();
      bpins = ivec ();
      bouts = ivec ();
      binputs = ivec ();
      boutputs = ivec ();
      output_flag = Bytes.make 16 '\000';
    }

  let fresh_net b name_opt =
    let id = b.bnet_count in
    ipush b.bname_off (Buffer.length b.names);
    (match name_opt with
     | Some n -> Buffer.add_string b.names n
     | None -> Buffer.add_string b.names (Printf.sprintf "n%d" id));
    b.bnet_count <- id + 1;
    if id >= Bytes.length b.output_flag then begin
      let f = Bytes.make (2 * Bytes.length b.output_flag) '\000' in
      Bytes.blit b.output_flag 0 f 0 (Bytes.length b.output_flag);
      b.output_flag <- f
    end;
    id

  let input ?name b =
    let n = fresh_net b name in
    ipush b.binputs n;
    n

  let gate ?name ?(strength = 1.0) b kind fan_in =
    if strength <= 0.0 then
      invalid_arg "Builder.gate: strength must be positive";
    if Array.length fan_in <> Gate.arity kind then
      invalid_arg
        (Printf.sprintf "Builder.gate: %s expects %d inputs, got %d"
           (Gate.name kind) (Gate.arity kind) (Array.length fan_in));
    Array.iter
      (fun n ->
        if n < 0 || n >= b.bnet_count then
          invalid_arg (Printf.sprintf "Builder.gate: unknown net %d" n))
      fan_in;
    let out = fresh_net b name in
    ipush b.bkinds (Gate.code kind);
    fpush b.bstrengths strength;
    Array.iter (fun n -> ipush b.bpins n) fan_in;
    ipush b.bpin_off b.bpins.ilen;
    ipush b.bouts out;
    out

  let mark_output b n =
    if n < 0 || n >= b.bnet_count then
      invalid_arg "Builder.mark_output: unknown net";
    if Bytes.get b.output_flag n = '\000' then begin
      Bytes.set b.output_flag n '\001';
      ipush b.boutputs n
    end

  let net_count b = b.bnet_count
  let gate_count b = b.bkinds.ilen

  let finish b =
    let n_gates = b.bkinds.ilen in
    let kind_code =
      Ba.create Bigarray.int8_unsigned Bigarray.c_layout n_gates
    in
    let strength_arr = Ba.create Bigarray.float64 Bigarray.c_layout n_gates in
    let pin_off = int_array1 (n_gates + 1) in
    let pins = int_array1 b.bpins.ilen in
    let out_net = int_array1 n_gates in
    Ba.set pin_off 0 0;
    for g = 0 to n_gates - 1 do
      Ba.set kind_code g b.bkinds.ia.(g);
      Ba.set strength_arr g b.bstrengths.fa.(g);
      Ba.set pin_off (g + 1) b.bpin_off.ia.(g);
      Ba.set out_net g b.bouts.ia.(g)
    done;
    for k = 0 to b.bpins.ilen - 1 do
      Ba.set pins k b.bpins.ia.(k)
    done;
    let name_off = int_array1 (b.bnet_count + 1) in
    for n = 0 to b.bnet_count - 1 do
      Ba.set name_off n b.bname_off.ia.(n)
    done;
    Ba.set name_off b.bnet_count (Buffer.length b.names);
    let blob = Buffer.contents b.names in
    let name_blob =
      Ba.create Bigarray.char Bigarray.c_layout (String.length blob)
    in
    String.iteri (fun i c -> Ba.set name_blob i c) blob;
    let ninputs = Array.sub b.binputs.ia 0 b.binputs.ilen in
    let noutputs = Array.sub b.boutputs.ia 0 b.boutputs.ilen in
    let flags which =
      let f = Bytes.make (Stdlib.max 1 b.bnet_count) '\000' in
      Array.iter (fun n -> Bytes.set f n '\001') which;
      f
    in
    let t =
      {
        nname = b.bname;
        n_gates;
        nnet_count = b.bnet_count;
        kind_code;
        strength_arr;
        pin_off;
        pins;
        out_net;
        ninputs;
        noutputs;
        name_off;
        name_blob;
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
