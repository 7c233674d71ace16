exception Parse_error of int * string

type op =
  | Op_and
  | Op_or
  | Op_nand
  | Op_nor
  | Op_not
  | Op_buf
  | Op_xor
  | Op_xnor
  | Op_dff

let op_code = function
  | Op_and -> 0 | Op_or -> 1 | Op_nand -> 2 | Op_nor -> 3 | Op_not -> 4
  | Op_buf -> 5 | Op_xor -> 6 | Op_xnor -> 7 | Op_dff -> 8

let op_of_code = [| Op_and; Op_or; Op_nand; Op_nor; Op_not; Op_buf; Op_xor;
                    Op_xnor; Op_dff |]

(* Operator spellings, matched ignoring ASCII case. *)
let op_spellings =
  [ ("AND", Op_and); ("OR", Op_or); ("NAND", Op_nand); ("NOR", Op_nor);
    ("NOT", Op_not); ("INV", Op_not); ("BUF", Op_buf); ("BUFF", Op_buf);
    ("XOR", Op_xor); ("XNOR", Op_xnor); ("DFF", Op_dff) ]

(* ------------------------------------------------------- byte scanning *)

(* The reader is one byte scanner over a buffer: [parse_string] hands it
   the whole text, [parse_file] the file one chunk at a time. A token is
   an index range [p, q) of that buffer; nothing is copied out of it but
   the bytes of a name seen for the first time and the text of an error
   message. Blanks are [String.trim]'s. *)

let[@inline] is_blank c =
  c = ' ' || c = '\t' || c = '\r' || c = '\n' || c = '\012'

(* First index of [c] in [buf.[p .. q - 1]], or [q]. *)
let find buf c p q =
  let i = ref p in
  while !i < q && Bytes.unsafe_get buf !i <> c do
    incr i
  done;
  !i

(* First non-blank index in [p, q), or [q]. *)
let skip_blanks buf p q =
  let i = ref p in
  while !i < q && is_blank (Bytes.unsafe_get buf !i) do
    incr i
  done;
  !i

(* The end of [buf.[p .. q - 1]] without its trailing blanks. *)
let trim_end buf p q =
  let j = ref q in
  while !j > p && is_blank (Bytes.unsafe_get buf (!j - 1)) do
    decr j
  done;
  !j

(* [a.[p .. p + len - 1]] and [b.[q .. q + len - 1]] are the same bytes. *)
let same_bytes a p b q len =
  let i = ref 0 in
  while !i < len && Bytes.unsafe_get a (p + !i) = Bytes.unsafe_get b (q + !i) do
    incr i
  done;
  !i = len

(* [buf.[p .. q - 1]] spells the upper-case [word], ignoring ASCII case. *)
let spells buf p q word =
  q - p = String.length word
  &&
  let i = ref 0 in
  while
    !i < q - p
    && Char.uppercase_ascii (Bytes.unsafe_get buf (p + !i)) = word.[!i]
  do
    incr i
  done;
  !i = q - p

let sub buf p q = Bytes.sub_string buf p (q - p)

(* Strength annotations ride in comments ("# strength=2") so sized netlists
   round-trip while plain ISCAS89 files stay untouched. The comment is
   [buf.[p .. q - 1]]; its first "strength=" is read as far as a number's
   characters go, and anything unreadable means 1. *)
let strength_marker = Bytes.of_string "strength="

let strength_of_comment buf p q =
  let m = Bytes.length strength_marker in
  let i = ref p in
  while !i + m <= q && not (same_bytes buf !i strength_marker 0 m) do
    incr i
  done;
  if !i + m > q then 1.0
  else begin
    let s = !i + m in
    let j = ref s in
    while
      !j < q
      && (match Bytes.unsafe_get buf !j with
          | '0' .. '9' | '.' | 'e' | '-' | '+' -> true
          | _ -> false)
    do
      incr j
    done;
    Option.value ~default:1.0 (float_of_string_opt (sub buf s !j))
  end

(* ------------------------------------------------------ stream tables *)

(* What the scanner keeps: every signal name interned once into a dense
   id, and every declaration as flat int/float buffers (target id, op code,
   line, strength, argument ids in a CSR layout). Names lie back to back in
   one blob and are found through an open-addressing table keyed by their
   byte ranges, so a million-gate file costs a few flat arrays and no
   string per name. Every table starts small and doubles as names and
   declarations arrive: blank lines, comments and whitespace cost none. *)

type stream = {
  mutable blob : Bytes.t;       (* interned names, back to back *)
  mutable blob_len : int;
  sig_off : Vec.t;              (* sig_count + 1 offsets into [blob] *)
  mutable slots : int array;    (* power-of-two length; 0 = empty *)
  sig_decl : Vec.t;             (* per signal: decl index or -1 *)
  sig_out : Vec.t;              (* per signal: 1 if already OUTPUT-declared *)
  (* declarations, flat *)
  d_tgt : Vec.t;
  d_op : Vec.t;
  d_line : Vec.t;
  d_strength : Vec.Float.t;
  d_arg_off : Vec.t;            (* length d_count + 1 *)
  d_args : Vec.t;
  mutable max_argc : int;
  (* file-order interface declarations *)
  in_lines : Vec.t;
  in_sigs : Vec.t;
  out_sigs : Vec.t;
}

let stream_create () =
  let n = 64 in
  let st = {
    blob = Bytes.create (8 * n);
    blob_len = 0;
    sig_off = Vec.create n;
    slots = Array.make n 0;
    sig_decl = Vec.create n;
    sig_out = Vec.create n;
    d_tgt = Vec.create n;
    d_op = Vec.create n;
    d_line = Vec.create n;
    d_strength = Vec.Float.create n;
    d_arg_off = Vec.create n;
    d_args = Vec.create n;
    max_argc = 0;
    in_lines = Vec.create 16;
    in_sigs = Vec.create 16;
    out_sigs = Vec.create 16;
  } in
  Vec.push st.sig_off 0;
  Vec.push st.d_arg_off 0;
  st

let sig_name st sid =
  let off = Vec.get st.sig_off sid in
  Bytes.sub_string st.blob off (Vec.get st.sig_off (sid + 1) - off)

(* A name's 30-bit hash. A slot holds it above the name's id + 1, so a
   probe passes a slot of another name, and a rehash moves one, without
   reading the blob. *)
let hash buf p q =
  let h = ref 0 in
  for i = p to q - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x100000001b3
  done;
  (!h lxor (!h lsr 32)) land 0x3fff_ffff

let slot_entry h id = (h lsl 32) lor (id + 1)
let slot_id e = (e land 0xffff_ffff) - 1
let slot_hash e = e lsr 32

(* The slot holding the name [buf.[p .. q - 1]] whose hash is [h], or the
   empty slot where it belongs: linear probing in a table kept at most
   half full. *)
let slot_of st buf p q h =
  let mask = Array.length st.slots - 1 in
  let i = ref (h land mask) in
  while
    let e = st.slots.(!i) in
    e <> 0
    && (slot_hash e <> h
       ||
       let id = slot_id e in
       let off = Vec.get st.sig_off id in
       not
         (Vec.get st.sig_off (id + 1) - off = q - p
         && same_bytes st.blob off buf p (q - p)))
  do
    i := (!i + 1) land mask
  done;
  !i

let grow_slots st =
  let slots = Array.make (2 * Array.length st.slots) 0 in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun e ->
      if e <> 0 then begin
        let i = ref (slot_hash e land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- e
      end)
    st.slots;
  st.slots <- slots

(* The id of the name [buf.[p .. q - 1]], interning it on first sight. *)
let intern st buf p q =
  let h = hash buf p q in
  let i = slot_of st buf p q h in
  match st.slots.(i) with
  | 0 ->
    let id = st.sig_decl.Vec.len and len = q - p in
    if st.blob_len + len > Bytes.length st.blob then begin
      let blob =
        Bytes.create (Stdlib.max (st.blob_len + len) (2 * Bytes.length st.blob))
      in
      Bytes.blit st.blob 0 blob 0 st.blob_len;
      st.blob <- blob
    end;
    Bytes.blit buf p st.blob st.blob_len len;
    st.blob_len <- st.blob_len + len;
    Vec.push st.sig_off st.blob_len;
    Vec.push st.sig_decl (-1);
    Vec.push st.sig_out 0;
    st.slots.(i) <- slot_entry h id;
    if 2 * (id + 1) > Array.length st.slots then grow_slots st;
    id
  | e -> slot_id e

(* ------------------------------------------------------------- lines *)

(* An [INPUT]/[OUTPUT] line is the keyword (any case), blanks, then
   "(name)". Returns the position of its '(', or -1 when the line is not
   a [kw] declaration: a line that starts with the keyword but has no '('
   after it is an assignment if it holds '=' ("input_sel = NAND(a, b)"),
   and malformed otherwise ("INPUT a"), as is "INPUT(a". *)
let declaration buf line_no a b kw =
  let k = String.length kw in
  if b - a > k && spells buf a (a + k) kw then begin
    let r = skip_blanks buf (a + k) b in
    let malformed () = raise (Parse_error (line_no, "malformed " ^ kw ^ " line")) in
    if Bytes.unsafe_get buf r = '(' then
      if b - r >= 2 && Bytes.unsafe_get buf (b - 1) = ')' then r
      else malformed ()
    else if find buf '=' a b < b then -1
    else malformed ()
  end
  else -1

let rec op_of buf p q = function
  | [] -> -1
  | (word, op) :: rest -> if spells buf p q word then op_code op else op_of buf p q rest

(* "target = OP(arg, ...)" on the trimmed line [a, b); its comment, if
   any, is [c, e). *)
let assignment st buf line_no a b c e =
  let eq = find buf '=' a b in
  if eq = b then raise (Parse_error (line_no, "expected assignment: " ^ sub buf a b));
  let ra = skip_blanks buf (eq + 1) b in
  let lp = find buf '(' ra b in
  if lp = b then raise (Parse_error (line_no, "expected OP(...): " ^ sub buf ra b));
  if Bytes.unsafe_get buf (b - 1) <> ')' then
    raise (Parse_error (line_no, "missing ')': " ^ sub buf ra b));
  let tb = trim_end buf a eq in
  if tb = a then raise (Parse_error (line_no, "empty target"));
  let tgt = intern st buf a tb in
  if Vec.get st.sig_decl tgt >= 0 then
    raise (Parse_error (line_no, "redefinition of " ^ sig_name st tgt));
  let ob = trim_end buf ra lp in
  let op = op_of buf ra ob op_spellings in
  if op < 0 then
    raise
      (Parse_error
         (line_no, "unknown operator " ^ String.uppercase_ascii (sub buf ra ob)));
  (* arguments: the ','-separated fields of the body, blank ones dropped *)
  let stop = b - 1 in
  let p = ref (lp + 1) and argc = ref 0 in
  while !p <= stop do
    let comma = find buf ',' !p stop in
    let x = skip_blanks buf !p comma in
    let y = trim_end buf x comma in
    if x < y then begin
      Vec.push st.d_args (intern st buf x y);
      incr argc
    end;
    p := comma + 1
  done;
  if !argc = 0 then raise (Parse_error (line_no, "no arguments"));
  st.max_argc <- Stdlib.max st.max_argc !argc;
  let d = st.d_tgt.Vec.len in
  Vec.push st.d_arg_off st.d_args.Vec.len;
  Vec.push st.d_tgt tgt;
  Vec.push st.d_op op;
  Vec.push st.d_line line_no;
  Vec.Float.push st.d_strength
    (if c < e then strength_of_comment buf c e else 1.0);
  Vec.set st.sig_decl tgt d

(* One line, [buf.[s .. e - 1]] without its '\n'. *)
let scan_line st buf line_no s e =
  (* Windows-authored files end lines with \r\n: drop one trailing \r
     before anything else looks at the line. *)
  let e = if e > s && Bytes.unsafe_get buf (e - 1) = '\r' then e - 1 else e in
  let c = find buf '#' s e in
  let a = skip_blanks buf s c in
  let b = trim_end buf a c in
  if a < b then begin
    let r = declaration buf line_no a b "INPUT" in
    if r >= 0 then begin
      let p = skip_blanks buf (r + 1) (b - 1) in
      Vec.push st.in_lines line_no;
      Vec.push st.in_sigs (intern st buf p (trim_end buf p (b - 1)))
    end
    else begin
      let r = declaration buf line_no a b "OUTPUT" in
      if r >= 0 then begin
        let p = skip_blanks buf (r + 1) (b - 1) in
        let sid = intern st buf p (trim_end buf p (b - 1)) in
        if Vec.get st.sig_out sid <> 0 then
          raise
            (Parse_error
               (line_no, "duplicate OUTPUT declaration of " ^ sig_name st sid));
        Vec.set st.sig_out sid 1;
        Vec.push st.out_sigs sid
      end
      else assignment st buf line_no a b c e
    end
  end

(* Scan every complete line of [buf.[0 .. len - 1]], of which the first
   [known] bytes hold no '\n'; returns where the unterminated tail starts. *)
let scan_lines st buf ~known len line_no =
  let s = ref 0 and nl = ref (find buf '\n' known len) in
  while !nl < len do
    incr line_no;
    scan_line st buf !line_no !s !nl;
    s := !nl + 1;
    nl := find buf '\n' !s len
  done;
  !s

(* --------------------------------------------------------- elaboration *)

(* Elaborate the streamed declarations into a netlist: dependency-ordered,
   with cycle and undefined-signal diagnostics carrying the referring line,
   iterative so a million-gate chain cannot overflow the OCaml stack, and
   with no per-gate list or closure. Consumes [st]: the frame stack reuses
   the intern table's slots. *)
let elaborate ~name st =
  let n_sigs = st.sig_decl.Vec.len and n_decls = st.d_tgt.Vec.len in
  if st.in_sigs.Vec.len = 0 && st.out_sigs.Vec.len = 0 && n_decls = 0 then
    raise (Parse_error (0, "empty .bench: no INPUT, OUTPUT or gate lines"));
  let module B = Netlist.Builder in
  (* Nets are the signals plus what wide-gate decomposition adds; pins are
     the arguments. *)
  let b = B.create ~size:(Stdlib.max n_sigs st.d_args.Vec.len) name in
  let sig_decl = st.sig_decl.Vec.a and d_tgt = st.d_tgt.Vec.a in
  let d_op = st.d_op.Vec.a and d_line = st.d_line.Vec.a in
  let arg_off = st.d_arg_off.Vec.a and args = st.d_args.Vec.a in
  let dff = op_code Op_dff in
  (* per signal: its net; -1 while unresolved, -2 while on the frame stack *)
  let sig_net = Array.make (Stdlib.max 1 n_sigs) (-1) in
  (* Primary inputs, then flip-flop Q nets as pseudo-inputs (file order).
     A name may be declared as an input at most once, and never also appear
     as a combinational gate target. *)
  for i = 0 to st.in_sigs.Vec.len - 1 do
    let sid = Vec.get st.in_sigs i in
    if sig_net.(sid) >= 0 then
      raise
        (Parse_error
           (Vec.get st.in_lines i, "duplicate INPUT declaration of " ^ sig_name st sid));
    let d = sig_decl.(sid) in
    if d >= 0 && d_op.(d) <> dff then
      raise
        (Parse_error
           ( d_line.(d),
             "gate output " ^ sig_name st sid
             ^ " shadows an INPUT of the same name" ));
    sig_net.(sid) <- B.input ~name:(sig_name st sid) b
  done;
  for d = 0 to n_decls - 1 do
    if d_op.(d) = dff then begin
      let sid = d_tgt.(d) in
      if sig_net.(sid) >= 0 then
        raise
          (Parse_error (d_line.(d), "DFF output clashes with input " ^ sig_name st sid));
      sig_net.(sid) <- B.input ~name:(sig_name st sid) b
    end
  done;
  (* A gate's pins are gathered in [scratch]; the builder copies them, so
     one array per arity carries every gate to it. *)
  let scratch = Array.make (Stdlib.max 1 st.max_argc) 0 in
  let pins = Array.init 5 (fun n -> Array.make n 0) in
  let cell ~strength kind i n =
    let p = pins.(n) in
    Array.blit scratch i p 0 n;
    B.gate ~strength b kind p
  in
  (* Gates wider than four inputs: reduce [scratch.(0 .. n - 1)] level by
     level, each group of four consecutive nets (the last may be shorter)
     becoming one unit-strength [inner] cell and a lone leftover passing
     through, until at most four nets remain; returns how many. *)
  let rec reduce inner n =
    if n <= 4 then n
    else begin
      let m = ref 0 and i = ref 0 in
      while !i < n do
        let k = Stdlib.min 4 (n - !i) in
        scratch.(!m) <-
          (if k = 1 then scratch.(!i) else cell ~strength:1.0 (inner k) !i k);
        incr m;
        i := !i + k
      done;
      reduce inner !m
    end
  in
  (* left-fold XOR chain over [scratch.(0 .. n - 1)] *)
  let xor_chain ~strength n =
    for i = 1 to n - 1 do
      scratch.(i) <- cell ~strength Gate.Xor (i - 1) 2
    done;
    scratch.(n - 1)
  in
  let and_kind k = Gate.And k and or_kind k = Gate.Or k in
  let emit d =
    let line_no = d_line.(d) and off = arg_off.(d) in
    let argc = arg_off.(d + 1) - off in
    for i = 0 to argc - 1 do
      scratch.(i) <- sig_net.(args.(off + i))
    done;
    let strength = Vec.Float.get st.d_strength d in
    let net =
      try
        match op_of_code.(d_op.(d)), argc with
        | (Op_not | Op_nand | Op_nor), 1 -> cell ~strength Gate.Inv 0 1
        | (Op_buf | Op_and | Op_or), 1 -> cell ~strength Gate.Buf 0 1
        | (Op_not | Op_buf), _ ->
          invalid_arg "bench: NOT/BUFF takes exactly one argument"
        | Op_and, n ->
          let k = reduce and_kind n in
          cell ~strength (Gate.And k) 0 k
        | Op_or, n ->
          let k = reduce or_kind n in
          cell ~strength (Gate.Or k) 0 k
        | Op_nand, n ->
          let k = reduce and_kind n in
          cell ~strength (Gate.Nand k) 0 k
        | Op_nor, n ->
          let k = reduce or_kind n in
          cell ~strength (Gate.Nor k) 0 k
        | Op_xor, 2 -> cell ~strength Gate.Xor 0 2
        | Op_xnor, 2 -> cell ~strength Gate.Xnor 0 2
        | Op_xor, 1 -> invalid_arg "bench: XOR needs >= 2 arguments"
        | Op_xnor, 1 -> invalid_arg "bench: XNOR needs >= 2 arguments"
        | Op_xor, n -> xor_chain ~strength n
        | Op_xnor, n ->
          scratch.(0) <- xor_chain ~strength n;
          cell ~strength Gate.Inv 0 1
        | Op_dff, _ -> invalid_arg "bench: DFF handled separately"
      with Invalid_argument msg -> raise (Parse_error (line_no, msg))
    in
    sig_net.(d_tgt.(d)) <- net
  in
  (* Iterative dependency-ordered elaboration. Frame [k] of the stack is a
     declaration and the index of its next argument to resolve, at
     [stack.(2k)] and [stack.(2k + 1)]. The intern table's slots serve as
     the stack: the parse no longer needs them, a declaration is on the
     stack at most once (its target reads -2 meanwhile), and the table has
     at least two slots per signal, so at least two per declaration. *)
  let stack = st.slots and depth = ref 0 in
  let push d =
    sig_net.(d_tgt.(d)) <- -2;
    stack.(2 * !depth) <- d;
    stack.((2 * !depth) + 1) <- 0;
    incr depth
  in
  let resolve line_no sid =
    if sig_net.(sid) < 0 then begin
      if sig_decl.(sid) < 0 then
        raise (Parse_error (line_no, "undefined signal " ^ sig_name st sid));
      push sig_decl.(sid);
      while !depth > 0 do
        let top = !depth - 1 in
        let d = stack.(2 * top) and pos = stack.((2 * top) + 1) in
        if pos < arg_off.(d + 1) - arg_off.(d) then begin
          stack.((2 * top) + 1) <- pos + 1;
          let a = args.(arg_off.(d) + pos) in
          match sig_net.(a) with
          | -2 ->
            raise
              (Parse_error (d_line.(d), "combinational cycle through " ^ sig_name st a))
          | -1 ->
            if sig_decl.(a) < 0 then
              raise (Parse_error (d_line.(d), "undefined signal " ^ sig_name st a));
            push sig_decl.(a)
          | _ -> ()
        end
        else begin
          emit d;
          depth := top
        end
      done
    end
  in
  (* Elaborate everything reachable from outputs and DFF data pins, then any
     remaining dangling definitions so validation sees a closed circuit. *)
  for i = 0 to st.out_sigs.Vec.len - 1 do
    resolve 0 (Vec.get st.out_sigs i)
  done;
  for d = 0 to n_decls - 1 do
    if d_op.(d) = dff then
      for i = arg_off.(d) to arg_off.(d + 1) - 1 do
        resolve d_line.(d) args.(i)
      done
  done;
  for d = 0 to n_decls - 1 do
    if d_op.(d) <> dff then resolve d_line.(d) d_tgt.(d)
  done;
  (* POs, plus DFF D pins as pseudo-outputs. *)
  for i = 0 to st.out_sigs.Vec.len - 1 do
    B.mark_output b sig_net.(Vec.get st.out_sigs i)
  done;
  for d = 0 to n_decls - 1 do
    if d_op.(d) = dff then
      for i = arg_off.(d) to arg_off.(d + 1) - 1 do
        B.mark_output b sig_net.(args.(i))
      done
  done;
  (* An elaborated netlist is closed and acyclic by construction; should
     validation still object, the reader reports it as its own error. *)
  match B.finish b with
  | t -> t
  | exception Failure msg -> raise (Parse_error (0, msg))

let parse_string ~name text =
  let st = stream_create () in
  (* the scanner only reads its buffer *)
  let buf = Bytes.unsafe_of_string text and len = String.length text in
  let line_no = ref 0 in
  let tail = scan_lines st buf ~known:0 len line_no in
  scan_line st buf (!line_no + 1) tail len;
  elaborate ~name st

let chunk_size = 65536

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let st = stream_create () in
      let line_no = ref 0 in
      (* [buf.[0 .. len - 1]] is the unscanned rest of a line; a line longer
         than the buffer doubles it *)
      let buf = ref (Bytes.create chunk_size) and len = ref 0 in
      let rec fill () =
        if !len = Bytes.length !buf then begin
          let b = Bytes.create (2 * !len) in
          Bytes.blit !buf 0 b 0 !len;
          buf := b
        end;
        match input ic !buf !len (Bytes.length !buf - !len) with
        | 0 -> scan_line st !buf (!line_no + 1) 0 !len
        | k ->
          let known = !len in
          len := !len + k;
          let tail = scan_lines st !buf ~known !len line_no in
          Bytes.blit !buf tail !buf 0 (!len - tail);
          len := !len - tail;
          fill ()
      in
      fill ();
      elaborate ~name:(Filename.remove_extension (Filename.basename path)) st)

(* ----------------------------------------------------------- writer *)

let op_name_of_kind = function
  | Gate.Inv -> "NOT"
  | Gate.Buf -> "BUFF"
  | Gate.Nand _ -> "NAND"
  | Gate.Nor _ -> "NOR"
  | Gate.And _ -> "AND"
  | Gate.Or _ -> "OR"
  | Gate.Xor -> "XOR"
  | Gate.Xnor -> "XNOR"
  | Gate.Aoi21 | Gate.Aoi22 | Gate.Oai21 | Gate.Oai22 ->
    invalid_arg "bench: complex cells are decomposed when written"

(* One operand of an emitted line: a net id, or [-1 - i] for the gate's
   i-th helper net ("__<out>_t<i>", i < 2) when a complex cell is
   decomposed. Names are copied byte by byte from the netlist. *)
let add_operand buf t ~out x =
  if x >= 0 then Netlist.add_net_name buf t x
  else begin
    Buffer.add_string buf "__";
    Netlist.add_net_name buf t out;
    Buffer.add_string buf "_t";
    Buffer.add_char buf (Char.unsafe_chr (48 - 1 - x))
  end

let start_line buf t ~out target op =
  add_operand buf t ~out target;
  Buffer.add_string buf " = ";
  Buffer.add_string buf op;
  Buffer.add_char buf '('

let end_line buf annotation =
  Buffer.add_char buf ')';
  Buffer.add_string buf annotation;
  Buffer.add_char buf '\n'

let pair_line buf t ~out ~annotation target op a b =
  start_line buf t ~out target op;
  add_operand buf t ~out a;
  Buffer.add_string buf ", ";
  add_operand buf t ~out b;
  end_line buf annotation

(* Render into [buf]. With [oc], each gate's lines go to the channel once
   the buffer passes 64 KiB, so [write_file] never holds the text; the
   caller writes what is left. *)
let emit ?oc t buf =
  Buffer.add_string buf "# ";
  Buffer.add_string buf (Netlist.name t);
  Buffer.add_char buf '\n';
  let decl keyword n =
    Buffer.add_string buf keyword;
    Netlist.add_net_name buf t n;
    Buffer.add_string buf ")\n"
  in
  Array.iter (decl "INPUT(") (Netlist.inputs t);
  Array.iter (decl "OUTPUT(") (Netlist.outputs t);
  Buffer.add_char buf '\n';
  let annotation strength =
    if strength = 1.0 then "" else Printf.sprintf "  # strength=%g" strength
  in
  for g = 0 to Netlist.gate_count t - 1 do
    let kind = Netlist.gate_kind t g in
    let out = Netlist.gate_out t g in
    let annotation = annotation (Netlist.gate_strength t g) in
    (match kind with
     | Gate.Inv | Gate.Buf | Gate.Nand _ | Gate.Nor _ | Gate.And _
     | Gate.Or _ | Gate.Xor | Gate.Xnor ->
       start_line buf t ~out out (op_name_of_kind kind);
       for p = 0 to Netlist.gate_arity t g - 1 do
         if p > 0 then Buffer.add_string buf ", ";
         Netlist.add_net_name buf t (Netlist.gate_pin t g p)
       done;
       end_line buf annotation
     | Gate.Aoi21 | Gate.Aoi22 | Gate.Oai21 | Gate.Oai22 -> (
       (* .bench has no complex-gate ops: AOI/OAI are emitted as their
          AND/OR + NOR/NAND decomposition through fresh helper nets. The
          round trip preserves the logic function (not the cell count). *)
       let pin p = Netlist.gate_pin t g p in
       let pair target op a b = pair_line buf t ~out ~annotation target op a b in
       match kind with
       | Gate.Aoi21 ->
         pair (-1) "AND" (pin 0) (pin 1);
         pair out "NOR" (-1) (pin 2)
       | Gate.Aoi22 ->
         pair (-1) "AND" (pin 0) (pin 1);
         pair (-2) "AND" (pin 2) (pin 3);
         pair out "NOR" (-1) (-2)
       | Gate.Oai21 ->
         pair (-1) "OR" (pin 0) (pin 1);
         pair out "NAND" (-1) (pin 2)
       | _ (* Oai22 *) ->
         pair (-1) "OR" (pin 0) (pin 1);
         pair (-2) "OR" (pin 2) (pin 3);
         pair out "NAND" (-1) (-2)));
    match oc with
    | Some oc when Buffer.length buf >= 65536 ->
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    | _ -> ()
  done

let to_string t =
  let buf = Buffer.create 4096 in
  emit t buf;
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      emit ~oc t buf;
      Buffer.output_buffer oc buf)
