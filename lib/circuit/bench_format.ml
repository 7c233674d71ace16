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

let op_of_string line_no s =
  match String.uppercase_ascii s with
  | "AND" -> Op_and
  | "OR" -> Op_or
  | "NAND" -> Op_nand
  | "NOR" -> Op_nor
  | "NOT" | "INV" -> Op_not
  | "BUF" | "BUFF" -> Op_buf
  | "XOR" -> Op_xor
  | "XNOR" -> Op_xnor
  | "DFF" -> Op_dff
  | other -> raise (Parse_error (line_no, "unknown operator " ^ other))

let op_code = function
  | Op_and -> 0 | Op_or -> 1 | Op_nand -> 2 | Op_nor -> 3 | Op_not -> 4
  | Op_buf -> 5 | Op_xor -> 6 | Op_xnor -> 7 | Op_dff -> 8

let op_of_code = [| Op_and; Op_or; Op_nand; Op_nor; Op_not; Op_buf; Op_xor;
                    Op_xnor; Op_dff |]

let strip s = String.trim s

(* Strength annotations ride in comments ("# strength=2") so sized netlists
   round-trip while plain ISCAS89 files stay untouched. *)
let strength_of_comment comment =
  let marker = "strength=" in
  let mlen = String.length marker in
  let clen = String.length comment in
  let rec find i =
    if i + mlen > clen then None
    else if String.sub comment i mlen = marker then begin
      let j = ref (i + mlen) in
      while
        !j < clen
        && (match comment.[!j] with '0' .. '9' | '.' | 'e' | '-' | '+' -> true | _ -> false)
      do
        incr j
      done;
      float_of_string_opt (String.sub comment (i + mlen) (!j - i - mlen))
    end
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------- streaming front-end *)

(* The parser consumes the input one line at a time and never holds the
   file — or a list of its lines — in memory. Every signal name is interned
   into a dense id the moment it is first seen; declarations are stored as
   flat int/float buffers (target id, op code, argument ids in a CSR
   layout), so a million-gate file costs a few flat arrays plus one string
   per distinct signal name, not a heap record per line. *)

type stream = {
  sig_id : (string, int) Hashtbl.t;
  mutable sig_names : string array;     (* grows with the intern table *)
  mutable sig_count : int;
  sig_decl : Vec.t;     (* per signal: decl index or -1 *)
  sig_out : Vec.t;      (* per signal: 1 if already OUTPUT-declared *)
  (* declarations, flat *)
  d_tgt : Vec.t;
  d_op : Vec.t;
  d_line : Vec.t;
  d_strength : Vec.Float.t;
  d_arg_off : Vec.t;    (* length d_count + 1 *)
  d_args : Vec.t;
  (* file-order interface declarations *)
  in_lines : Vec.t;
  in_sigs : Vec.t;
  out_sigs : Vec.t;
}

(* [lines] sizes every per-signal and per-declaration table: a line
   declares at most one gate and names about one new signal, so a file's
   line count is their size and none of them doubles. The interface lists
   keep a small start. *)
let stream_create ~lines =
  let n = Stdlib.max 16 lines in
  let st = {
    sig_id = Hashtbl.create n;
    sig_names = Array.make n "";
    sig_count = 0;
    sig_decl = Vec.create n;
    sig_out = Vec.create n;
    d_tgt = Vec.create n;
    d_op = Vec.create n;
    d_line = Vec.create n;
    d_strength = Vec.Float.create n;
    d_arg_off = Vec.create (n + 1);
    d_args = Vec.create n;
    in_lines = Vec.create 16;
    in_sigs = Vec.create 16;
    out_sigs = Vec.create 16;
  } in
  Vec.push st.d_arg_off 0;
  st

let intern st name =
  match Hashtbl.find_opt st.sig_id name with
  | Some id -> id
  | None ->
    let id = st.sig_count in
    Hashtbl.add st.sig_id name id;
    if id = Array.length st.sig_names then begin
      let a = Array.make (2 * id) "" in
      Array.blit st.sig_names 0 a 0 id;
      st.sig_names <- a
    end;
    st.sig_names.(id) <- name;
    st.sig_count <- id + 1;
    Vec.push st.sig_decl (-1);
    Vec.push st.sig_out 0;
    id

(* Recognize "NAME = OP(arg, ...)" / "INPUT(x)" / "OUTPUT(x)". *)
let process_line st line_no raw =
  (* Windows-authored files end lines with \r\n: input_line keeps the \r,
     so strip it explicitly before anything else looks at the line. *)
  let raw =
    let n = String.length raw in
    if n > 0 && raw.[n - 1] = '\r' then String.sub raw 0 (n - 1) else raw
  in
  let line, strength =
    match String.index_opt raw '#' with
    | Some i ->
      let comment = String.sub raw i (String.length raw - i) in
      ( String.sub raw 0 i,
        Option.value ~default:1.0 (strength_of_comment comment) )
    | None -> (raw, 1.0)
  in
  let line = strip line in
  if line = "" then ()
  else begin
    let paren_body prefix =
      let plen = String.length prefix in
      if String.length line > plen
         && String.uppercase_ascii (String.sub line 0 plen) = prefix
      then begin
        let rest = strip (String.sub line plen (String.length line - plen)) in
        if String.length rest >= 2 && rest.[0] = '(' && rest.[String.length rest - 1] = ')'
        then Some (strip (String.sub rest 1 (String.length rest - 2)))
        else raise (Parse_error (line_no, "malformed " ^ prefix ^ " line"))
      end
      else None
    in
    match paren_body "INPUT" with
    | Some name ->
      Vec.push st.in_lines line_no;
      Vec.push st.in_sigs (intern st name)
    | None ->
      match paren_body "OUTPUT" with
      | Some name ->
        let sid = intern st name in
        if Vec.get st.sig_out sid <> 0 then
          raise
            (Parse_error (line_no, "duplicate OUTPUT declaration of " ^ name));
        Vec.set st.sig_out sid 1;
        Vec.push st.out_sigs sid
      | None ->
        match String.index_opt line '=' with
        | None -> raise (Parse_error (line_no, "expected assignment: " ^ line))
        | Some eq ->
          let target = strip (String.sub line 0 eq) in
          let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
          (match String.index_opt rhs '(' with
           | None -> raise (Parse_error (line_no, "expected OP(...): " ^ rhs))
           | Some lp ->
             if rhs.[String.length rhs - 1] <> ')' then
               raise (Parse_error (line_no, "missing ')': " ^ rhs));
             let opname = strip (String.sub rhs 0 lp) in
             let body = String.sub rhs (lp + 1) (String.length rhs - lp - 2) in
             if target = "" then raise (Parse_error (line_no, "empty target"));
             let tgt = intern st target in
             if Vec.get st.sig_decl tgt >= 0 then
               raise (Parse_error (line_no, "redefinition of " ^ target));
             let op = op_of_string line_no opname in
             let d = st.d_tgt.Vec.len in
             let argc = ref 0 in
             String.split_on_char ',' body
             |> List.iter (fun a ->
                    let a = strip a in
                    if a <> "" then begin
                      Vec.push st.d_args (intern st a);
                      incr argc
                    end);
             if !argc = 0 then raise (Parse_error (line_no, "no arguments"));
             Vec.push st.d_arg_off st.d_args.Vec.len;
             Vec.push st.d_tgt tgt;
             Vec.push st.d_op (op_code op);
             Vec.push st.d_line line_no;
             Vec.Float.push st.d_strength strength;
             Vec.set st.sig_decl tgt d)
  end

(* Reduce a wide associative gate to a tree of <=4-input cells. The final
   cell carries the output polarity; inner levels use the plain AND/OR. *)
let rec reduce_tree b mk_inner (nets : Netlist.net list) =
  if List.length nets <= 4 then Array.of_list nets
  else begin
    let rec chunk acc current = function
      | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
      | x :: rest ->
        if List.length current = 4 then chunk (List.rev current :: acc) [ x ] rest
        else chunk acc (x :: current) rest
    in
    let groups = chunk [] [] nets in
    let reduced =
      List.map
        (fun group ->
          match group with
          | [ single ] -> single
          | group -> Netlist.Builder.gate b (mk_inner (List.length group)) (Array.of_list group))
        groups
    in
    reduce_tree b mk_inner reduced
  end

let build_gate b op ~strength (args : Netlist.net list) =
  let module B = Netlist.Builder in
  let gate kind arr = B.gate ~strength b kind arr in
  let n = List.length args in
  let arr = Array.of_list args in
  match op, n with
  | Op_not, 1 -> gate Gate.Inv arr
  | Op_buf, 1 -> gate Gate.Buf arr
  | (Op_not | Op_buf), _ ->
    invalid_arg "bench: NOT/BUFF takes exactly one argument"
  | Op_and, 1 -> gate Gate.Buf arr
  | Op_or, 1 -> gate Gate.Buf arr
  | Op_nand, 1 -> gate Gate.Inv arr
  | Op_nor, 1 -> gate Gate.Inv arr
  | Op_and, n when n <= 4 -> gate (Gate.And n) arr
  | Op_or, n when n <= 4 -> gate (Gate.Or n) arr
  | Op_nand, n when n <= 4 -> gate (Gate.Nand n) arr
  | Op_nor, n when n <= 4 -> gate (Gate.Nor n) arr
  | Op_and, _ ->
    let leaves = reduce_tree b (fun k -> Gate.And k) args in
    gate (Gate.And (Array.length leaves)) leaves
  | Op_or, _ ->
    let leaves = reduce_tree b (fun k -> Gate.Or k) args in
    gate (Gate.Or (Array.length leaves)) leaves
  | Op_nand, _ ->
    let leaves = reduce_tree b (fun k -> Gate.And k) args in
    gate (Gate.Nand (Array.length leaves)) leaves
  | Op_nor, _ ->
    let leaves = reduce_tree b (fun k -> Gate.Or k) args in
    gate (Gate.Nor (Array.length leaves)) leaves
  | Op_xor, 2 -> gate Gate.Xor arr
  | Op_xnor, 2 -> gate Gate.Xnor arr
  | Op_xor, _ ->
    (* left-fold XOR chain *)
    (match args with
     | [] | [ _ ] -> invalid_arg "bench: XOR needs >= 2 arguments"
     | first :: rest ->
       List.fold_left (fun acc a -> gate Gate.Xor [| acc; a |]) first rest)
  | Op_xnor, _ ->
    (match args with
     | [] | [ _ ] -> invalid_arg "bench: XNOR needs >= 2 arguments"
     | first :: rest ->
       let x = List.fold_left (fun acc a -> gate Gate.Xor [| acc; a |]) first rest in
       gate Gate.Inv [| x |])
  | Op_dff, _ -> invalid_arg "bench: DFF handled separately"

(* Elaborate the streamed declarations into a netlist. Same semantics as
   the historical recursive elaboration — dependency-ordered, with cycle
   and undefined-signal diagnostics carrying the referring line — but
   iterative with an explicit frame stack, so a million-gate chain does not
   overflow the OCaml stack. *)
let elaborate ~name st =
  if st.in_sigs.Vec.len = 0 && st.out_sigs.Vec.len = 0
     && st.d_tgt.Vec.len = 0
  then raise (Parse_error (0, "empty .bench: no INPUT, OUTPUT or gate lines"));
  let module B = Netlist.Builder in
  (* Nets are the signals plus what wide-gate decomposition adds; pins are
     the arguments. *)
  let b = B.create ~size:(Stdlib.max st.sig_count st.d_args.Vec.len) name in
  let sig_net = Array.make (Stdlib.max 1 st.sig_count) (-1) in
  let in_progress = Bytes.make (Stdlib.max 1 st.sig_count) '\000' in
  let sname sid = st.sig_names.(sid) in
  let decl_of sid = Vec.get st.sig_decl sid in
  let d_op d = op_of_code.(Vec.get st.d_op d) in
  let d_argc d = Vec.get st.d_arg_off (d + 1) - Vec.get st.d_arg_off d in
  let d_arg d i = Vec.get st.d_args (Vec.get st.d_arg_off d + i) in
  (* Primary inputs, then flip-flop Q nets as pseudo-inputs (file order).
     A name may be declared as an input at most once, and never also appear
     as a combinational gate target. *)
  for i = 0 to st.in_sigs.Vec.len - 1 do
    let sid = Vec.get st.in_sigs i in
    let line_no = Vec.get st.in_lines i in
    if sig_net.(sid) >= 0 then
      raise
        (Parse_error (line_no, "duplicate INPUT declaration of " ^ sname sid));
    (match decl_of sid with
     | d when d >= 0 && d_op d <> Op_dff ->
       raise
         (Parse_error
            ( Vec.get st.d_line d,
              "gate output " ^ sname sid
              ^ " shadows an INPUT of the same name" ))
     | _ -> ());
    sig_net.(sid) <- B.input ~name:(sname sid) b
  done;
  for d = 0 to st.d_tgt.Vec.len - 1 do
    if d_op d = Op_dff then begin
      let sid = Vec.get st.d_tgt d in
      if sig_net.(sid) >= 0 then
        raise
          (Parse_error
             (Vec.get st.d_line d, "DFF output clashes with input " ^ sname sid));
      sig_net.(sid) <- B.input ~name:(sname sid) b
    end
  done;
  (* Iterative dependency-ordered elaboration. A frame is a declaration
     plus the index of the next argument to resolve; a signal is
     in-progress while its frame is on the stack. *)
  let fr_decl = Vec.create 16 and fr_pos = Vec.create 16 in
  let emit d =
    let args = List.init (d_argc d) (fun i -> sig_net.(d_arg d i)) in
    let strength = Vec.Float.get st.d_strength d in
    match build_gate b (d_op d) ~strength args with
    | net ->
      let tgt = Vec.get st.d_tgt d in
      Bytes.set in_progress tgt '\000';
      sig_net.(tgt) <- net
    | exception Invalid_argument msg ->
      raise (Parse_error (Vec.get st.d_line d, msg))
  in
  let resolve line_no sid =
    if sig_net.(sid) < 0 then begin
      (match decl_of sid with
       | -1 -> raise (Parse_error (line_no, "undefined signal " ^ sname sid))
       | d ->
         Bytes.set in_progress sid '\001';
         Vec.push fr_decl d;
         Vec.push fr_pos 0);
      while fr_decl.Vec.len > 0 do
        let top = fr_decl.Vec.len - 1 in
        let d = Vec.get fr_decl top in
        let pos = Vec.get fr_pos top in
        if pos < d_argc d then begin
          Vec.set fr_pos top (pos + 1);
          let a = d_arg d pos in
          if sig_net.(a) < 0 then begin
            if Bytes.get in_progress a <> '\000' then
              raise
                (Parse_error
                   (Vec.get st.d_line d, "combinational cycle through " ^ sname a));
            match decl_of a with
            | -1 ->
              raise
                (Parse_error
                   (Vec.get st.d_line d, "undefined signal " ^ sname a))
            | da ->
              Bytes.set in_progress a '\001';
              Vec.push fr_decl da;
              Vec.push fr_pos 0
          end
        end
        else begin
          emit d;
          fr_decl.Vec.len <- top;
          fr_pos.Vec.len <- top
        end
      done
    end
  in
  (* Elaborate everything reachable from outputs and DFF data pins, then any
     remaining dangling definitions so validation sees a closed circuit. *)
  for i = 0 to st.out_sigs.Vec.len - 1 do
    resolve 0 (Vec.get st.out_sigs i)
  done;
  for d = 0 to st.d_tgt.Vec.len - 1 do
    if d_op d = Op_dff then
      for i = 0 to d_argc d - 1 do
        resolve (Vec.get st.d_line d) (d_arg d i)
      done
  done;
  for d = 0 to st.d_tgt.Vec.len - 1 do
    if d_op d <> Op_dff then resolve (Vec.get st.d_line d) (Vec.get st.d_tgt d)
  done;
  (* POs, plus DFF D pins as pseudo-outputs. *)
  for i = 0 to st.out_sigs.Vec.len - 1 do
    B.mark_output b sig_net.(Vec.get st.out_sigs i)
  done;
  for d = 0 to st.d_tgt.Vec.len - 1 do
    if d_op d = Op_dff then
      for i = 0 to d_argc d - 1 do
        B.mark_output b sig_net.(d_arg d i)
      done
  done;
  B.finish b

let parse_stream ~lines ~name next =
  let st = stream_create ~lines in
  let line_no = ref 0 in
  let rec loop () =
    match next () with
    | None -> ()
    | Some raw ->
      incr line_no;
      process_line st !line_no raw;
      loop ()
  in
  loop ();
  elaborate ~name st

let parse_lines ~name next = parse_stream ~lines:0 ~name next

let parse_string ~name text =
  (* Walk the text segment by segment instead of materializing a line
     list; semantics match [String.split_on_char '\n']. *)
  let len = String.length text in
  let lines = ref 1 in
  String.iter (fun c -> if c = '\n' then incr lines) text;
  let pos = ref 0 in
  let next () =
    if !pos > len then None
    else
      match String.index_from_opt text !pos '\n' with
      | Some i ->
        let s = String.sub text !pos (i - !pos) in
        pos := i + 1;
        Some s
      | None ->
        let s = String.sub text !pos (len - !pos) in
        pos := len + 1;
        Some s
  in
  parse_stream ~lines:!lines ~name next

(* One buffered pass over the file counting newlines, then back to the
   start for the parse proper. *)
let count_lines ic =
  let buf = Bytes.create 65536 in
  let rec go n =
    match input ic buf 0 (Bytes.length buf) with
    | 0 -> n
    | k ->
      let n = ref n in
      for i = 0 to k - 1 do
        if Bytes.unsafe_get buf i = '\n' then incr n
      done;
      go !n
  in
  let n = go 1 in
  seek_in ic 0;
  n

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let next () =
        match input_line ic with
        | line -> Some line
        | exception End_of_file -> None
      in
      let name = Filename.remove_extension (Filename.basename path) in
      parse_stream ~lines:(count_lines ic) ~name next)

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

(* Emit through a callback so [write_file] streams straight to the channel
   (never holding the rendered text in memory) while [to_string] collects
   into a buffer. *)
let emit t put =
  put (Printf.sprintf "# %s\n" (Netlist.name t));
  Array.iter
    (fun n -> put (Printf.sprintf "INPUT(%s)\n" (Netlist.net_name t n)))
    (Netlist.inputs t);
  Array.iter
    (fun n -> put (Printf.sprintf "OUTPUT(%s)\n" (Netlist.net_name t n)))
    (Netlist.outputs t);
  put "\n";
  let line ?(strength = 1.0) target op args =
    let annotation =
      if strength = 1.0 then ""
      else Printf.sprintf "  # strength=%g" strength
    in
    put
      (Printf.sprintf "%s = %s(%s)%s\n" target op (String.concat ", " args)
         annotation)
  in
  for g = 0 to Netlist.gate_count t - 1 do
    let kind = Netlist.gate_kind t g in
    let pin i = Netlist.net_name t (Netlist.gate_pin t g i) in
    let args = List.init (Netlist.gate_arity t g) pin in
    let out = Netlist.net_name t (Netlist.gate_out t g) in
    (* .bench has no complex-gate ops: AOI/OAI are emitted as their
       AND/OR + NOR/NAND decomposition through fresh helper nets. The
       round trip preserves the logic function (not the cell count). *)
    let tmp i = Printf.sprintf "__%s_t%d" out i in
    let strength = Netlist.gate_strength t g in
    match kind with
    | Gate.Aoi21 ->
      line ~strength (tmp 0) "AND" [ pin 0; pin 1 ];
      line ~strength out "NOR" [ tmp 0; pin 2 ]
    | Gate.Aoi22 ->
      line ~strength (tmp 0) "AND" [ pin 0; pin 1 ];
      line ~strength (tmp 1) "AND" [ pin 2; pin 3 ];
      line ~strength out "NOR" [ tmp 0; tmp 1 ]
    | Gate.Oai21 ->
      line ~strength (tmp 0) "OR" [ pin 0; pin 1 ];
      line ~strength out "NAND" [ tmp 0; pin 2 ]
    | Gate.Oai22 ->
      line ~strength (tmp 0) "OR" [ pin 0; pin 1 ];
      line ~strength (tmp 1) "OR" [ pin 2; pin 3 ];
      line ~strength out "NAND" [ tmp 0; tmp 1 ]
    | Gate.Inv | Gate.Buf | Gate.Nand _ | Gate.Nor _ | Gate.And _
    | Gate.Or _ | Gate.Xor | Gate.Xnor ->
      line ~strength out (op_name_of_kind kind) args
  done

let to_string t =
  let buf = Buffer.create 4096 in
  emit t (Buffer.add_string buf);
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> emit t (output_string oc))
