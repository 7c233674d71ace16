(* Strict JSON reader plus the escaper and number formatter the writers in
   this library share. Parsing is recursive descent over the whole text
   with one cursor; every rejection raises [Error] with the byte offset. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "byte %d: %s" !pos msg)) in
  let eof () = !pos >= n in
  let rec skip_ws () =
    if not (eof ()) then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  (* the next non-blank byte inside an unfinished [what] *)
  let next what =
    skip_ws ();
    if eof () then fail ("unterminated " ^ what);
    s.[!pos]
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  (* after a \u: one code point, reading the low half of a surrogate pair *)
  let code_point () =
    let hi = hex4 () in
    if hi >= 0xdc00 && hi < 0xe000 then fail "unpaired surrogate"
    else if hi < 0xd800 || hi >= 0xdc00 then hi
    else if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xdc00 || lo >= 0xe000 then fail "unpaired surrogate";
      0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00)
    end
    else fail "unpaired surrogate"
  in
  let string () =
    incr pos;
    let b = Buffer.create 16 in
    let rec go () =
      if eof () then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents b
      | '\\' ->
        incr pos;
        if eof () then fail "unterminated string";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | '"' | '\\' | '/' -> Buffer.add_char b e
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
         | _ ->
           decr pos;
           fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control byte in string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let accept c =
      let hit = (not (eof ())) && s.[!pos] = c in
      if hit then incr pos;
      hit
    in
    let digits () =
      let d0 = !pos in
      while (not (eof ())) && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d0 then fail "bad number"
    in
    ignore (accept '-');
    if not (accept '0') then digits ();
    if accept '.' then digits ();
    if accept 'e' || accept 'E' then begin
      ignore (accept '+' || accept '-');
      digits ()
    end;
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value depth =
    skip_ws ();
    if eof () then fail "unexpected end of input";
    match s.[!pos] with
    | ('{' | '[') when depth >= max_depth -> fail "nesting too deep"
    | '{' ->
      incr pos;
      obj depth
    | '[' ->
      incr pos;
      arr depth
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  and obj depth =
    if next "object" = '}' then begin
      incr pos;
      Obj []
    end
    else
      let rec members acc =
        if next "object" <> '"' then fail "expected a string key";
        let k = string () in
        if next "object" <> ':' then fail "expected ':'";
        incr pos;
        let kv = (k, value (depth + 1)) in
        match next "object" with
        | ',' ->
          incr pos;
          members (kv :: acc)
        | '}' ->
          incr pos;
          Obj (List.rev (kv :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
  and arr depth =
    if next "array" = ']' then begin
      incr pos;
      Arr []
    end
    else
      let rec elements acc =
        let v = value (depth + 1) in
        match next "array" with
        | ',' ->
          incr pos;
          elements (v :: acc)
        | ']' ->
          incr pos;
          Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elements []
  in
  let v = value 0 in
  skip_ws ();
  if not (eof ()) then fail "trailing input";
  v

let read_file path = parse (In_channel.with_open_bin path In_channel.input_all)

(* ---------------------------------------------------------------- lookup *)

let kind = function
  | Null -> "null"
  | Bool _ -> "a boolean"
  | Num _ -> "a number"
  | Str _ -> "a string"
  | Arr _ -> "an array"
  | Obj _ -> "an object"

let member k = function
  | Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> raise (Error (Printf.sprintf "missing key %S" k)))
  | v ->
    raise
      (Error
         (Printf.sprintf "expected an object with key %S, got %s" k (kind v)))

let typed want get k o =
  let v = member k o in
  match get v with
  | Some x -> x
  | None ->
    raise (Error (Printf.sprintf "key %S: expected %s, got %s" k want (kind v)))

let num = typed "a number" (function Num f -> Some f | _ -> None)

let int =
  typed "an integer" (function
    | Num f when Float.is_integer f && Float.abs f <= 0x1p53 ->
      Some (int_of_float f)
    | _ -> None)

let str = typed "a string" (function Str s -> Some s | _ -> None)
let bool = typed "a boolean" (function Bool b -> Some b | _ -> None)
let arr = typed "an array" (function Arr l -> Some l | _ -> None)

(* ---------------------------------------------------------------- write *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f
