exception Parse_error of int * string

let perr line_no fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (line_no, s))) fmt

(* Supply / ground nets never appear in the logic netlist. *)
let is_rail tok =
  match String.lowercase_ascii tok with
  | "0" | "vdd" | "vss" | "gnd" | "vdd!" | "gnd!" | "vss!" -> true
  | _ -> false

let split_ws s =
  let out = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' -> flush ()
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !out

module Vec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let a = Array.make (2 * v.len) 0 in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
end

type stream = {
  net_id : (string, int) Hashtbl.t;
  mutable net_names : string array;
  mutable nets : int;
  net_driver : Vec.t;   (* per net: instance index or -1 *)
  net_read : Vec.t;     (* per net: 1 if some instance reads it *)
  (* instances, flat *)
  i_kind : Vec.t;       (* Gate.code *)
  i_line : Vec.t;
  i_strength : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ref;
  mutable i_strength_len : int;
  i_pin_off : Vec.t;    (* length = #instances + 1 *)
  i_pins : Vec.t;
  i_out : Vec.t;
}

let stream_create () =
  let st = {
    net_id = Hashtbl.create 1024;
    net_names = Array.make 16 "";
    nets = 0;
    net_driver = Vec.create ();
    net_read = Vec.create ();
    i_kind = Vec.create ();
    i_line = Vec.create ();
    i_strength =
      ref (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 16);
    i_strength_len = 0;
    i_pin_off = Vec.create ();
    i_pins = Vec.create ();
    i_out = Vec.create ();
  } in
  Vec.push st.i_pin_off 0;
  st

let push_strength st x =
  let a = !(st.i_strength) in
  if st.i_strength_len = Bigarray.Array1.dim a then begin
    let b =
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
        (2 * st.i_strength_len)
    in
    Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 st.i_strength_len);
    st.i_strength := b
  end;
  !(st.i_strength).{st.i_strength_len} <- x;
  st.i_strength_len <- st.i_strength_len + 1

let intern st name =
  match Hashtbl.find_opt st.net_id name with
  | Some id -> id
  | None ->
    let id = st.nets in
    Hashtbl.add st.net_id name id;
    if id = Array.length st.net_names then begin
      let a = Array.make (2 * id) "" in
      Array.blit st.net_names 0 a 0 id;
      st.net_names <- a
    end;
    st.net_names.(id) <- name;
    st.nets <- id + 1;
    Vec.push st.net_driver (-1);
    Vec.push st.net_read 0;
    id

(* One logical statement (continuations already joined). *)
let process_statement st skipping line_no stmt =
  match split_ws stmt with
  | [] -> ()
  | first :: _ as toks ->
    let head = String.lowercase_ascii first in
    if !skipping then begin
      (* inside .subckt ... .ends: cell internals are not elaborated —
         cells are matched by name at instantiation sites *)
      if head = ".ends" then skipping := false
    end
    else if head = ".subckt" then skipping := true
    else if String.length head > 0 && head.[0] = '.' then
      (* other dot-cards (.end, .global, .option, .include, ...) are noise
         for a structural read *)
      ()
    else if head.[0] = 'x' then begin
      (* X<name> in1 .. inN out cellname [m=<mult>] [k=v ...] *)
      let params, nodes_and_cell =
        List.partition (fun t -> String.contains t '=') (List.tl toks)
      in
      let strength =
        List.fold_left
          (fun acc p ->
            match String.index_opt p '=' with
            | Some i when String.lowercase_ascii (String.sub p 0 i) = "m" ->
              (match
                 float_of_string_opt
                   (String.sub p (i + 1) (String.length p - i - 1))
               with
               | Some m when m > 0.0 && m < Float.infinity -> m
               | _ -> perr line_no "bad device multiplier %S" p)
            | _ -> acc)
          1.0 params
      in
      let nodes, cell =
        match List.rev nodes_and_cell with
        | cell :: rev_nodes -> (List.rev rev_nodes, cell)
        | [] -> perr line_no "instance %s has no cell name" first
      in
      let kind =
        try Gate.of_name cell
        with Invalid_argument _ -> perr line_no "unknown cell %S" cell
      in
      let logic_nodes = List.filter (fun t -> not (is_rail t)) nodes in
      let arity = Gate.arity kind in
      if List.length logic_nodes <> arity + 1 then
        perr line_no "cell %s expects %d logic pins + output, instance %s has %d"
          cell arity first (List.length logic_nodes);
      let rec split_out acc = function
        | [ out ] -> (List.rev acc, out)
        | x :: rest -> split_out (x :: acc) rest
        | [] -> assert false
      in
      let ins, out = split_out [] logic_nodes in
      let out_id = intern st out in
      if Vec.get st.net_driver out_id >= 0 then
        perr line_no "net %s driven twice (instance %s)" out first;
      let idx = st.i_kind.Vec.len in
      Vec.set st.net_driver out_id idx;
      Vec.push st.i_kind (Gate.code kind);
      Vec.push st.i_line line_no;
      push_strength st strength;
      List.iter
        (fun n ->
          let id = intern st n in
          Vec.set st.net_read id 1;
          Vec.push st.i_pins id)
        ins;
      Vec.push st.i_pin_off st.i_pins.Vec.len;
      Vec.push st.i_out out_id
    end
    else
      perr line_no
        "unsupported element %S (the SPICE subset reads X cell instances only)"
        first

let elaborate ~name st =
  let n_inst = st.i_kind.Vec.len in
  if n_inst = 0 then
    raise (Parse_error (0, "empty SPICE netlist: no cell instances"));
  let module B = Netlist.Builder in
  let b = B.create name in
  let net_of = Array.make st.nets (-1) in
  (* Undriven nets are primary inputs, in first-appearance order. *)
  for id = 0 to st.nets - 1 do
    if Vec.get st.net_driver id < 0 then
      net_of.(id) <- B.input ~name:st.net_names.(id) b
  done;
  (* Kahn-style dependency-ordered emission: an instance fires once every
     input net exists. Iterative — no recursion to overflow. *)
  let argc i = Vec.get st.i_pin_off (i + 1) - Vec.get st.i_pin_off i in
  let arg i k = Vec.get st.i_pins (Vec.get st.i_pin_off i + k) in
  let missing = Array.make n_inst 0 in
  (* per driven net: list of instances waiting on it, CSR *)
  let wait_cnt = Array.make st.nets 0 in
  for i = 0 to n_inst - 1 do
    for k = 0 to argc i - 1 do
      let a = arg i k in
      if net_of.(a) < 0 then begin
        missing.(i) <- missing.(i) + 1;
        wait_cnt.(a) <- wait_cnt.(a) + 1
      end
    done
  done;
  let wait_off = Array.make (st.nets + 1) 0 in
  for id = 0 to st.nets - 1 do
    wait_off.(id + 1) <- wait_off.(id) + wait_cnt.(id)
  done;
  let wait = Array.make wait_off.(st.nets) 0 in
  let fill = Array.copy wait_off in
  for i = 0 to n_inst - 1 do
    for k = 0 to argc i - 1 do
      let a = arg i k in
      if Vec.get st.net_driver a >= 0 then begin
        wait.(fill.(a)) <- i;
        fill.(a) <- fill.(a) + 1
      end
    done
  done;
  let queue = Array.make n_inst 0 in
  let qhead = ref 0 and qtail = ref 0 in
  for i = 0 to n_inst - 1 do
    if missing.(i) = 0 then begin
      queue.(!qtail) <- i;
      incr qtail
    end
  done;
  let emitted = ref 0 in
  while !qhead < !qtail do
    let i = queue.(!qhead) in
    incr qhead;
    let pins = Array.init (argc i) (fun k -> net_of.(arg i k)) in
    let kind = Gate.of_code (Vec.get st.i_kind i) in
    let out_id = Vec.get st.i_out i in
    let strength = !(st.i_strength).{i} in
    net_of.(out_id) <-
      B.gate ~name:st.net_names.(out_id) ~strength b kind pins;
    incr emitted;
    for w = wait_off.(out_id) to wait_off.(out_id + 1) - 1 do
      let j = wait.(w) in
      missing.(j) <- missing.(j) - 1;
      if missing.(j) = 0 then begin
        queue.(!qtail) <- j;
        incr qtail
      end
    done
  done;
  if !emitted < n_inst then begin
    (* some instance never fired: report a cycle at the first culprit *)
    let rec first i =
      if missing.(i) > 0 then i else first (i + 1)
    in
    let i = first 0 in
    perr (Vec.get st.i_line i) "combinational cycle through net %s"
      st.net_names.(Vec.get st.i_out i)
  end;
  (* Driven-but-unread nets are the primary outputs. *)
  for id = 0 to st.nets - 1 do
    if Vec.get st.net_driver id >= 0 && Vec.get st.net_read id = 0 then
      B.mark_output b net_of.(id)
  done;
  B.finish b

let parse_lines ~name next =
  let st = stream_create () in
  let skipping = ref false in
  (* current logical statement: "+" continuation lines append to it *)
  let pending = ref None in
  let flush () =
    match !pending with
    | None -> ()
    | Some (ln, stmt) ->
      pending := None;
      process_statement st skipping ln (Buffer.contents stmt)
  in
  let line_no = ref 0 in
  let rec loop () =
    match next () with
    | None -> ()
    | Some raw ->
      incr line_no;
      let raw =
        let n = String.length raw in
        if n > 0 && raw.[n - 1] = '\r' then String.sub raw 0 (n - 1) else raw
      in
      (* strip trailing comments: "$" and ";" start a comment mid-line *)
      let raw =
        match String.index_opt raw '$' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let raw =
        match String.index_opt raw ';' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let t = String.trim raw in
      if t = "" || t.[0] = '*' then ()
      else if t.[0] = '+' then begin
        match !pending with
        | None -> perr !line_no "continuation line with nothing to continue"
        | Some (_, stmt) ->
          Buffer.add_char stmt ' ';
          Buffer.add_string stmt (String.sub t 1 (String.length t - 1))
      end
      else begin
        flush ();
        let stmt = Buffer.create (String.length t) in
        Buffer.add_string stmt t;
        pending := Some (!line_no, stmt)
      end;
      loop ()
  in
  loop ();
  flush ();
  elaborate ~name st

let parse_string ~name text =
  let len = String.length text in
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
  parse_lines ~name next

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
      parse_lines ~name next)
