(* Exported-surface audit.

   [surface.exe FILE...] reads the program files named on the command line
   (lib, bin, bench, examples and ledger sources) and prints every top-level
   [val] of a lib/**/*.mli whose name no file outside its own module
   mentions, one [Module.name] per line. The committed surface.expected is
   the allowlist of such values: test hooks and test references. A new
   exported value that no program reaches therefore changes the output and
   fails [dune runtest]; [dune promote] accepts an intended entry.

   Comments and string literals are blanked before the scan, so a name that
   appears only in documentation or in a message is not a use. The scan is
   by word, not by path: a dead value whose name is common elsewhere
   ([make], [copy]) stays invisible to it. *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

(* [src] with every comment and string literal overwritten by spaces
   (newlines kept, so line structure survives). Character literals are
   skipped so that ['"'] does not open a string. *)
let blank src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let clear i j =
    for k = i to min n j - 1 do
      if Bytes.get out k <> '\n' then Bytes.set out k ' '
    done
  in
  let at i c = i < n && src.[i] = c in
  (* Index just past the string literal whose opening quote is at [i - 1]. *)
  let rec string_end i =
    if i >= n then n
    else
      match src.[i] with
      | '"' -> i + 1
      | '\\' -> string_end (i + 2)
      | _ -> string_end (i + 1)
  in
  (* [{id|...|id}] opening at [i], if it is one: index just past it. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if not (at !j '|') then None
    else begin
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub src !k m <> close do
        incr k
      done;
      Some (min n (!k + m))
    end
  in
  (* Index just past the comment whose body starts at [i], at nesting
     [depth]. Strings inside comments are lexed, as OCaml does. *)
  let rec comment_end i depth =
    if i >= n then n
    else if at i '(' && at (i + 1) '*' then comment_end (i + 2) (depth + 1)
    else if at i '*' && at (i + 1) ')' then
      if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else if at i '"' then comment_end (string_end (i + 1)) depth
    else comment_end (i + 1) depth
  in
  (* A quote right after an identifier character is a prime ([x']); else
     ['c'] and ['\n'] are character literals and anything else is a type
     variable. *)
  let char_end i =
    if i > 0 && is_ident_char src.[i - 1] then i + 1
    else if at (i + 1) '\\' then
      match String.index_from_opt src (i + 3) '\'' with
      | Some j -> j + 1
      | None -> n
    else if at (i + 2) '\'' then i + 3
    else i + 1
  in
  let rec go i =
    if i < n then
      match src.[i] with
      | '(' when at (i + 1) '*' ->
          let j = comment_end (i + 2) 1 in
          clear i j;
          go j
      | '"' ->
          let j = string_end (i + 1) in
          clear i j;
          go j
      | '{' -> (
          match quoted_end i with
          | Some j ->
              clear i j;
              go j
          | None -> go (i + 1))
      | '\'' -> go (char_end i)
      | _ -> go (i + 1)
  in
  go 0;
  Bytes.to_string out

(* Every identifier in [src], numbers skipped. *)
let iter_words f src =
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if is_ident_start c || ('0' <= c && c <= '9') then begin
      let j = ref (!i + 1) in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      if is_ident_start c then f (String.sub src !i (!j - !i));
      i := !j
    end
    else incr i
  done

(* Names declared by lines that start with [val]. *)
let top_level_vals src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         if not (String.starts_with ~prefix:"val " line) then None
         else begin
           let j = ref 4 in
           while !j < String.length line && is_ident_char line.[!j] do
             incr j
           done;
           Some (String.sub line 4 (!j - 4))
         end)

(* A module is one basename in one directory: foo.ml and foo.mli. *)
let module_key path = Filename.remove_extension path

let in_lib path = List.mem "lib" (String.split_on_char '/' path)

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  (* word -> the modules whose files mention it *)
  let mentions = Hashtbl.create 4096 in
  let decls = ref [] in
  List.iter
    (fun path ->
      let src = blank (In_channel.with_open_bin path In_channel.input_all) in
      let key = module_key path in
      iter_words
        (fun w ->
          let seen = Option.value (Hashtbl.find_opt mentions w) ~default:[] in
          if not (List.mem key seen) then Hashtbl.replace mentions w (key :: seen))
        src;
      if in_lib path && Filename.check_suffix path ".mli" then
        decls := (path, top_level_vals src) :: !decls)
    files;
  List.sort compare !decls
  |> List.iter (fun (path, names) ->
         let key = module_key path in
         let modname = String.capitalize_ascii (Filename.basename key) in
         List.iter
           (fun name ->
             let users = Option.value (Hashtbl.find_opt mentions name) ~default:[] in
             if List.for_all (String.equal key) users then
               Printf.printf "%s.%s\n" modname name)
           names)
