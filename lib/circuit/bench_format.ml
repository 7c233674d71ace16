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

(* ------------------------------------------------------ packed tables *)

(* The reader's tables hold fixed-width records of 32-bit fields in
   [Bytes]: half the room of int arrays, in blocks the GC never scans, and
   one capacity check per record. Every value stored (a signal or
   declaration id, an offset, a count, a line number) is below the input's
   length in bytes, which the reader caps at [max_input]. A table starts
   small and doubles as records arrive, so blank lines, comments and
   whitespace cost it nothing. *)
type tab = { mutable b : Bytes.t; mutable len : int; w : int (* fields *) }

let max_input = 0x7fff_ffff

let tab w n = { b = Bytes.create (4 * w * n); len = 0; w }
let[@inline] get t i k = Int32.to_int (Bytes.get_int32_ne t.b (4 * ((t.w * i) + k)))
let[@inline] set t i k v = Bytes.set_int32_ne t.b (4 * ((t.w * i) + k)) (Int32.of_int v)

(* The index of a new record at the end of [t]; its fields are unset. *)
let add t =
  let i = t.len in
  if 4 * t.w * (i + 1) > Bytes.length t.b then begin
    let b = Bytes.create (2 * Bytes.length t.b) in
    Bytes.blit t.b 0 b 0 (4 * t.w * i);
    t.b <- b
  end;
  t.len <- i + 1;
  i

(* ------------------------------------------------------ stream tables *)

(* What the scanner keeps: every signal name interned once into a dense
   id, and every declaration as a record. Names lie back to back in one
   blob and are found through an open-addressing table keyed by their byte
   ranges, so a million-gate file costs a few flat blocks and no string per
   name. A declaration's strength, when not 1, goes to [strengths], and
   the declaration holds its index + 1 (0 for strength 1). *)

(* signal fields *)
let s_end = 0     (* end of its name in the blob; the name starts where
                     the previous signal's ends *)
let s_decl = 1    (* declaration index or -1 *)
let s_out = 2     (* 1 once OUTPUT-declared *)

(* declaration fields *)
let d_tgt = 0
let d_op = 1
let d_line = 2
let d_strength = 3
let d_args_end = 4  (* end of its arguments in [args]; they start where
                       the previous declaration's end *)

type stream = {
  mutable blob : Bytes.t;       (* interned names, back to back *)
  mutable blob_len : int;
  mutable slots : Bytes.t;      (* 8-byte slots, a power-of-two count; 0 = empty *)
  sigs : tab;
  decls : tab;
  args : tab;                   (* argument signal ids *)
  strengths : Vec.Float.t;
  mutable max_argc : int;
  (* file-order interface declarations *)
  ins : tab;                    (* line, signal *)
  outs : tab;                   (* signal *)
  (* the line in hand *)
  mutable line : int;           (* lines scanned so far *)
  mutable h : int;              (* the last walked name's hash ... *)
  mutable q : int;              (* ... and end *)
  mutable toks : int array;     (* per argument: start, end, hash *)
}

let stream_create () =
  let n = 64 in
  {
    blob = Bytes.create (8 * n);
    blob_len = 0;
    slots = Bytes.make (8 * n) '\000';
    sigs = tab 3 n;
    decls = tab 5 n;
    args = tab 1 n;
    strengths = Vec.Float.create 4;
    max_argc = 0;
    ins = tab 2 16;
    outs = tab 1 16;
    line = 0;
    h = 0;
    q = 0;
    toks = Array.make 24 0;
  }

let name_start st sid = if sid = 0 then 0 else get st.sigs (sid - 1) s_end

let sig_name st sid =
  let off = name_start st sid in
  Bytes.sub_string st.blob off (get st.sigs sid s_end - off)

let args_start st d = if d = 0 then 0 else get st.decls (d - 1) d_args_end

(* [a.[p .. p + len - 1]] and [b.[q .. q + len - 1]] are the same bytes. *)
let same_bytes a p b q len =
  let i = ref 0 in
  while !i < len && Bytes.unsafe_get a (p + !i) = Bytes.unsafe_get b (q + !i) do
    incr i
  done;
  !i = len

(* A name's 30-bit hash is made as the scanner passes it: FNV-1a steps over
   every byte but the last, spread by a multiplicative (Fibonacci) mix,
   with the last byte's low four bits in place of the result's. Names that
   differ only in their last byte (numbered nets: n10 .. n19) thus probe
   from one 16-slot group of the table, two cache lines, instead of ten
   random ones; on a million-gate chain that takes the intern table's
   cache misses from one per name to about one per ten. A slot holds the
   hash above the name's id + 1, so a probe passes a slot of another name,
   and a rehash moves one, without reading the blob. *)
let[@inline] step h c = (h lxor c) * 0x100000001b3

let[@inline] name_hash h last =
  (((h * 0x2545F4914F6CDD1D) lsr 33) land 0x3fff_fff0) lor (last land 15)

let[@inline] slot slots i = Int64.to_int (Bytes.get_int64_ne slots (8 * i))
let[@inline] set_slot slots i e = Bytes.set_int64_ne slots (8 * i) (Int64.of_int e)
let slot_entry h id = (h lsl 32) lor (id + 1)
let slot_id e = (e land 0xffff_ffff) - 1
let slot_hash e = e lsr 32

(* The slot holding the name [buf.[p .. q - 1]] whose hash is [h], or the
   empty slot where it belongs: linear probing in a table kept at most
   half full. *)
let slot_of st buf p q h =
  let mask = (Bytes.length st.slots / 8) - 1 in
  let i = ref (h land mask) in
  while
    let e = slot st.slots !i in
    e <> 0
    && (slot_hash e <> h
       ||
       let id = slot_id e in
       let off = name_start st id in
       not (get st.sigs id s_end - off = q - p && same_bytes st.blob off buf p (q - p)))
  do
    i := (!i + 1) land mask
  done;
  !i

let grow_slots st =
  let n = Bytes.length st.slots / 8 in
  let slots = Bytes.make (16 * n) '\000' in
  let mask = (2 * n) - 1 in
  for k = 0 to n - 1 do
    let e = slot st.slots k in
    if e <> 0 then begin
      let i = ref (slot_hash e land mask) in
      while slot slots !i <> 0 do
        i := (!i + 1) land mask
      done;
      set_slot slots !i e
    end
  done;
  st.slots <- slots

(* The id of the name [buf.[p .. q - 1]], whose hash is [h], interning it
   on first sight. *)
let intern st buf p q h =
  let i = slot_of st buf p q h in
  match slot st.slots i with
  | 0 ->
    let len = q - p in
    if st.blob_len + len > Bytes.length st.blob then begin
      let blob =
        Bytes.create (Stdlib.max (st.blob_len + len) (2 * Bytes.length st.blob))
      in
      Bytes.blit st.blob 0 blob 0 st.blob_len;
      st.blob <- blob
    end;
    Bytes.blit buf p st.blob st.blob_len len;
    st.blob_len <- st.blob_len + len;
    let id = add st.sigs in
    set st.sigs id s_end st.blob_len;
    set st.sigs id s_decl (-1);
    set st.sigs id s_out 0;
    set_slot st.slots i (slot_entry h id);
    if 2 * (id + 1) > Bytes.length st.slots / 8 then grow_slots st;
    id
  | e -> slot_id e

(* ------------------------------------------------------- line scanner *)

(* The reader is one byte scanner over a buffer: [parse_string] hands it
   the whole text, [parse_file] the file one chunk at a time. It walks each
   line once, left to right: a token is an index range of the buffer, and
   each name is hashed as it passes, so nothing is copied out of the
   buffer but the bytes of a name seen for the first time and the text of
   an error message. Blanks are [String.trim]'s; a '\r' before the '\n'
   is one of them. Nothing is interned, stored or reported before the
   scanner has seen the line's '\n' (or the end of the input), so a line
   a chunk cuts is scanned again, whole, from the next chunk. *)

let[@inline] is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* First non-blank index from [i], or [lim]. *)
let skip_blanks buf i lim =
  let i = ref i in
  while !i < lim && is_blank (Bytes.unsafe_get buf !i) do
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

let sub buf p q = Bytes.sub_string buf p (q - p)

(* Where the line holding [i] ends: the index of its '\n', [lim] when the
   input ends there, or -1 when [buf] ends inside the line. *)
let line_end buf i lim eof =
  let i = ref i in
  while !i < lim && Bytes.unsafe_get buf !i <> '\n' do
    incr i
  done;
  if !i < lim || eof then !i else -1

(* A ')' at [i] closes its line's parentheses when only blanks follow it
   before the comment or the line's end. *)
let closes buf i lim =
  let j = skip_blanks buf (i + 1) lim in
  j = lim || (match Bytes.unsafe_get buf j with '\n' | '#' -> true | _ -> false)

(* Walk a name from [i] to the first [stop] byte, the closing ')' (with
   [closing]), '#', '\n' or [lim]; returns where it stopped, and leaves the
   name's end and hash in [st.q] and [st.h]. Blanks after the name's last
   byte are not part of it: a blank run is hashed only when another byte
   of the name follows. *)
let walk_name st buf i lim stop closing =
  let start = i in
  let h = ref 0 and last = ref 0 and q = ref i and i = ref i and go = ref true in
  while !go && !i < lim do
    match Bytes.unsafe_get buf !i with
    | '\n' | '#' -> go := false
    | ' ' | '\t' | '\r' | '\012' -> incr i
    | ')' when closing && closes buf !i lim -> go := false
    | c when c = stop -> go := false
    | c ->
      if !q > start then h := step !h !last;
      for j = !q to !i - 1 do
        h := step !h (Char.code (Bytes.unsafe_get buf j))
      done;
      last := Char.code c;
      incr i;
      q := !i
  done;
  st.h <- name_hash !h !last;
  st.q <- !q;
  !i

(* Operators are matched on their upper-cased bytes packed into an int
   behind a leading 1; text longer than seven bytes packs to 0, which
   spells no operator. *)
let pack word = String.fold_left (fun k c -> (k lsl 8) lor Char.code c) 1 word
let op_keys = List.map (fun (word, op) -> (pack word, op_code op)) op_spellings

let rec op_of_key key = function
  | [] -> -1
  | (k, op) :: rest -> if k = key then op else op_of_key key rest

(* Walk an operator from [i] to its '(' (or the content's end) as
   [walk_name] walks a name, leaving its packed key in [st.h]. *)
let walk_op st buf i lim =
  let start = i in
  let k = ref 1 and q = ref i and i = ref i and go = ref true in
  while !go && !i < lim do
    match Bytes.unsafe_get buf !i with
    | '\n' | '#' | '(' -> go := false
    | ' ' | '\t' | '\r' | '\012' -> incr i
    | _ ->
      for j = !q to !i do
        k := (!k lsl 8) lor Char.code (Char.uppercase_ascii (Bytes.unsafe_get buf j))
      done;
      incr i;
      q := !i
  done;
  st.h <- (if !q - start > 7 then 0 else !k);
  st.q <- !q;
  !i

(* [buf.[a ..]] starts with the upper-case [word], ignoring ASCII case. *)
let starts_with buf a lim word =
  let k = String.length word in
  a + k <= lim
  &&
  let i = ref 0 in
  while
    !i < k && Char.uppercase_ascii (Bytes.unsafe_get buf (a + !i)) = word.[!i]
  do
    incr i
  done;
  !i = k

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

let next e lim = if e < lim then e + 1 else lim

let fail line_no msg = raise (Parse_error (line_no, msg))

(* The error of a keyword line ([kw] bytes) that is no declaration. *)
let malformed kw = "malformed " ^ (if kw = 5 then "INPUT" else "OUTPUT") ^ " line"

(* An [INPUT]/[OUTPUT] line is the keyword (any case, [kw] bytes), blanks,
   then "(name)"; [r] is its '('. *)
let declaration st buf kw r lim eof =
  let x = skip_blanks buf (r + 1) lim in
  let i = walk_name st buf x lim '\n' true in
  let closed = i < lim && Bytes.unsafe_get buf i = ')' in
  let q = st.q and h = st.h in
  match line_end buf i lim eof with
  | -1 -> -1
  | e ->
    st.line <- st.line + 1;
    let line_no = st.line in
    if not closed then fail line_no (malformed kw);
    let sid = intern st buf x q h in
    if kw = 5 then begin
      let i = add st.ins in
      set st.ins i 0 line_no;
      set st.ins i 1 sid
    end
    else begin
      if get st.sigs sid s_out <> 0 then
        fail line_no ("duplicate OUTPUT declaration of " ^ sig_name st sid);
      set st.sigs sid s_out 1;
      set st.outs (add st.outs) 0 sid
    end;
    next e lim

(* Room for argument [n] of the line in hand. *)
let arg_room st n =
  if (3 * n) + 3 > Array.length st.toks then begin
    let a = Array.make (2 * Array.length st.toks) 0 in
    Array.blit st.toks 0 a 0 (3 * n);
    st.toks <- a
  end

(* "target = OP(arg, ...)" from its first byte [a]. The line's checks run
   once it is whole, in a fixed order, so a line with several faults
   reports the first of: no '=', no '(' after it, no closing ')', an empty
   target, a redefined target, an unknown operator, no argument. When the
   line starts with a keyword ([kw] bytes) not followed by '(', it is
   malformed unless it holds '='. *)
let assignment st buf a lim eof kw =
  let i = ref (walk_name st buf a lim '=' false) in
  let ty = st.q and th = st.h in
  let eq = !i < lim && Bytes.unsafe_get buf !i = '=' in
  let ra = ref !i and ob = ref 0 and key = ref 0 in
  let paren = ref false and closed = ref false and argc = ref 0 in
  if eq then begin
    ra := skip_blanks buf (!i + 1) lim;
    i := walk_op st buf !ra lim;
    key := st.h;
    ob := st.q;
    if !i < lim && Bytes.unsafe_get buf !i = '(' then begin
      (* the ','-separated fields up to the closing ')', blank ones dropped *)
      paren := true;
      let more = ref true in
      while !more do
        let x = skip_blanks buf (!i + 1) lim in
        i := walk_name st buf x lim ',' true;
        if st.q > x then begin
          arg_room st !argc;
          st.toks.(3 * !argc) <- x;
          st.toks.((3 * !argc) + 1) <- st.q;
          st.toks.((3 * !argc) + 2) <- st.h;
          incr argc
        end;
        more := !i < lim && Bytes.unsafe_get buf !i = ','
      done;
      closed := !i < lim && Bytes.unsafe_get buf !i = ')'
    end
  end;
  (* [c]: the comment's '#', the '\n' or [lim] *)
  let c = if !closed then skip_blanks buf (!i + 1) lim else !i in
  match line_end buf c lim eof with
  | -1 -> -1
  | e ->
    st.line <- st.line + 1;
    let line_no = st.line in
    let b = if !closed then c else trim_end buf a c in
    let ra = if !ra < b then !ra else b in
    if not eq then
      fail line_no (if kw > 0 then malformed kw else "expected assignment: " ^ sub buf a b);
    if not !paren then fail line_no ("expected OP(...): " ^ sub buf ra b);
    if not !closed then fail line_no ("missing ')': " ^ sub buf ra b);
    if ty = a then fail line_no "empty target";
    let tgt = intern st buf a ty th in
    if get st.sigs tgt s_decl >= 0 then fail line_no ("redefinition of " ^ sig_name st tgt);
    let op = op_of_key !key op_keys in
    if op < 0 then
      fail line_no ("unknown operator " ^ String.uppercase_ascii (sub buf ra !ob));
    if !argc = 0 then fail line_no "no arguments";
    for k = 0 to !argc - 1 do
      let x = st.toks.(3 * k) and y = st.toks.((3 * k) + 1) in
      set st.args (add st.args) 0 (intern st buf x y st.toks.((3 * k) + 2))
    done;
    if !argc > st.max_argc then st.max_argc <- !argc;
    let strength = if c < e then strength_of_comment buf c e else 1.0 in
    let d = add st.decls in
    set st.decls d d_tgt tgt;
    set st.decls d d_op op;
    set st.decls d d_line line_no;
    if strength = 1.0 then set st.decls d d_strength 0
    else begin
      Vec.Float.push st.strengths strength;
      set st.decls d d_strength st.strengths.Vec.Float.len
    end;
    set st.decls d d_args_end st.args.len;
    set st.sigs tgt s_decl d;
    next e lim

(* Scan the line starting at [p]: returns the index just past its '\n'
   ([lim] at the end of the input), or -1 when [buf] ends inside it
   before the input does. *)
let scan_line st buf p lim eof =
  let a = skip_blanks buf p lim in
  if a = lim then if eof then (st.line <- st.line + 1; lim) else -1
  else
    match Bytes.unsafe_get buf a with
    | '\n' ->
      st.line <- st.line + 1;
      a + 1
    | '#' -> (
      match line_end buf a lim eof with
      | -1 -> -1
      | e ->
        st.line <- st.line + 1;
        next e lim)
    | first ->
      (* A line is a declaration when the keyword is followed by blanks and
         then '('; with anything else after it, the line is an assignment
         if it holds '=' and malformed otherwise. *)
      let kw =
        match first with
        | ('I' | 'i') when starts_with buf a lim "INPUT" -> 5
        | ('O' | 'o') when starts_with buf a lim "OUTPUT" -> 6
        | _ -> 0
      in
      let r = skip_blanks buf (a + kw) lim in
      if kw = 0 || r = lim then assignment st buf a lim eof 0
      else
        match Bytes.unsafe_get buf r with
        | '(' -> declaration st buf kw r lim eof
        | '\n' | '#' -> assignment st buf a lim eof 0
        | _ -> assignment st buf a lim eof kw

(* Scan the lines of [buf.[0 .. lim - 1]]; returns where the unscanned
   tail starts: [lim] at the end of the input, else the start of the line
   [buf] ends inside. *)
let scan st buf lim eof =
  let p = ref 0 and go = ref true in
  while !go && !p < lim do
    let n = scan_line st buf !p lim eof in
    if n < 0 then go := false else p := n
  done;
  !p

(* --------------------------------------------------------- elaboration *)

let[@inline] decl_of st sid = get st.sigs sid s_decl
let[@inline] field st d k = get st.decls d k
let[@inline] arg st k = get st.args k 0

(* Frame [k] of the elaboration stack: its declaration and the index of its
   next argument, the two 32-bit halves of an 8-byte slot. *)
let[@inline] frame stack k half = Int32.to_int (Bytes.get_int32_ne stack ((8 * k) + (4 * half)))
let[@inline] set_frame stack k half v = Bytes.set_int32_ne stack ((8 * k) + (4 * half)) (Int32.of_int v)

(* Elaborate the streamed declarations into a netlist: dependency-ordered,
   with cycle and undefined-signal diagnostics carrying the referring line,
   iterative so a million-gate chain cannot overflow the OCaml stack, and
   with no per-gate list or closure. Consumes [st]: the frame stack reuses
   the intern table's slots. *)
let elaborate ~name st =
  let n_sigs = st.sigs.len and n_decls = st.decls.len in
  if st.ins.len = 0 && st.outs.len = 0 && n_decls = 0 then
    raise (Parse_error (0, "empty .bench: no INPUT, OUTPUT or gate lines"));
  let module B = Netlist.Builder in
  (* Nets are the signals plus what wide-gate decomposition adds; pins are
     the arguments. *)
  let b = B.create ~size:(Stdlib.max n_sigs st.args.len) name in
  let dff = op_code Op_dff in
  (* per signal: its net; -1 while unresolved, -2 while on the frame stack *)
  let sig_net = Array.make (Stdlib.max 1 n_sigs) (-1) in
  (* Primary inputs, then flip-flop Q nets as pseudo-inputs (file order).
     A name may be declared as an input at most once, and never also appear
     as a combinational gate target. *)
  for i = 0 to st.ins.len - 1 do
    let sid = get st.ins i 1 in
    if sig_net.(sid) >= 0 then
      raise
        (Parse_error
           (get st.ins i 0, "duplicate INPUT declaration of " ^ sig_name st sid));
    let d = decl_of st sid in
    if d >= 0 && field st d d_op <> dff then
      raise
        (Parse_error
           ( field st d d_line,
             "gate output " ^ sig_name st sid
             ^ " shadows an INPUT of the same name" ));
    sig_net.(sid) <- B.input ~name:(sig_name st sid) b
  done;
  for d = 0 to n_decls - 1 do
    if field st d d_op = dff then begin
      let sid = field st d d_tgt in
      if sig_net.(sid) >= 0 then
        raise
          (Parse_error
             (field st d d_line, "DFF output clashes with input " ^ sig_name st sid));
      sig_net.(sid) <- B.input ~name:(sig_name st sid) b
    end
  done;
  (* A gate's pins are gathered in [scratch]; the builder copies them, so
     one array per arity carries every gate to it. *)
  let scratch = Array.make (Stdlib.max 1 st.max_argc) 0 in
  let pins = Array.init 5 (fun n -> Array.make n 0) in
  let cell ~strength kind i n =
    let p = pins.(n) in
    for k = 0 to n - 1 do
      p.(k) <- scratch.(i + k)
    done;
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
    let line_no = field st d d_line and off = args_start st d in
    let argc = field st d d_args_end - off in
    for i = 0 to argc - 1 do
      scratch.(i) <- sig_net.(arg st (off + i))
    done;
    let strength =
      match field st d d_strength with
      | 0 -> 1.0
      | k -> Vec.Float.get st.strengths (k - 1)
    in
    let net =
      try
        match op_of_code.(field st d d_op), argc with
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
    sig_net.(field st d d_tgt) <- net
  in
  (* Iterative dependency-ordered elaboration. The stack's frames are the
     intern table's slots: the parse no longer needs them, a declaration is
     on the stack at most once (its target reads -2 meanwhile), and the
     table has at least two slots per signal, so at least two per
     declaration. *)
  let stack = st.slots and depth = ref 0 in
  let enter d =
    sig_net.(field st d d_tgt) <- -2;
    set_frame stack !depth 0 d;
    set_frame stack !depth 1 0;
    incr depth
  in
  let resolve line_no sid =
    if sig_net.(sid) < 0 then begin
      if decl_of st sid < 0 then
        raise (Parse_error (line_no, "undefined signal " ^ sig_name st sid));
      enter (decl_of st sid);
      while !depth > 0 do
        let top = !depth - 1 in
        let d = frame stack top 0 and pos = frame stack top 1 in
        let off = args_start st d in
        if pos < field st d d_args_end - off then begin
          set_frame stack top 1 (pos + 1);
          let a = arg st (off + pos) in
          match sig_net.(a) with
          | -2 ->
            raise
              (Parse_error
                 (field st d d_line, "combinational cycle through " ^ sig_name st a))
          | -1 ->
            if decl_of st a < 0 then
              raise (Parse_error (field st d d_line, "undefined signal " ^ sig_name st a));
            enter (decl_of st a)
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
  for i = 0 to st.outs.len - 1 do
    resolve 0 (get st.outs i 0)
  done;
  for d = 0 to n_decls - 1 do
    if field st d d_op = dff then
      for i = args_start st d to field st d d_args_end - 1 do
        resolve (field st d d_line) (arg st i)
      done
  done;
  for d = 0 to n_decls - 1 do
    if field st d d_op <> dff then resolve (field st d d_line) (field st d d_tgt)
  done;
  (* POs, plus DFF D pins as pseudo-outputs. *)
  for i = 0 to st.outs.len - 1 do
    B.mark_output b sig_net.(get st.outs i 0)
  done;
  for d = 0 to n_decls - 1 do
    if field st d d_op = dff then
      for i = args_start st d to field st d d_args_end - 1 do
        B.mark_output b sig_net.(arg st i)
      done
  done;
  (* An elaborated netlist is closed and acyclic by construction; should
     validation still object, the reader reports it as its own error. *)
  match B.finish b with
  | t -> t
  | exception Failure msg -> raise (Parse_error (0, msg))

let too_large () =
  raise (Parse_error (0, Printf.sprintf "input larger than %d bytes" max_input))

let parse_string ~name text =
  let len = String.length text in
  if len > max_input then too_large ();
  let st = stream_create () in
  (* the scanner only reads its buffer *)
  ignore (scan st (Bytes.unsafe_of_string text) len true);
  elaborate ~name st

let chunk_size = 65536

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let st = stream_create () in
      (* [buf.[0 .. len - 1]] is the unscanned rest of a line, which holds no
         '\n'; a line longer than the buffer doubles it *)
      let buf = ref (Bytes.create chunk_size) and len = ref 0 and total = ref 0 in
      let rec fill () =
        if !len = Bytes.length !buf then begin
          let b = Bytes.create (2 * !len) in
          Bytes.blit !buf 0 b 0 !len;
          buf := b
        end;
        match input ic !buf !len (Bytes.length !buf - !len) with
        | 0 -> ignore (scan st !buf !len true)
        | k ->
          total := !total + k;
          if !total > max_input then too_large ();
          let from = !len in
          len := from + k;
          (* scan once the rest of the line has arrived *)
          if line_end !buf from !len false >= 0 then begin
            let tail = scan st !buf !len false in
            Bytes.blit !buf tail !buf 0 (!len - tail);
            len := !len - tail
          end;
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

(* A strength as the reader reads it back, bit for bit: [%g] when that is
   exact, else [%.17g], which always is. *)
let strength_text s =
  let g = Printf.sprintf "%g" s in
  if float_of_string g = s then g else Printf.sprintf "%.17g" s

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
  (* each distinct strength's annotation is rendered once per call *)
  let annotations = Hashtbl.create 8 in
  let annotation strength =
    if strength = 1.0 then ""
    else
      match Hashtbl.find annotations strength with
      | text -> text
      | exception Not_found ->
        let text = "  # strength=" ^ strength_text strength in
        Hashtbl.add annotations strength text;
        text
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
