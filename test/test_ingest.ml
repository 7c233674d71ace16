(* Ingestion hardening tests: streaming .bench parsing (CRLF, missing final
   newline, duplicate declarations, truncation), the .bench writer's exact
   bytes and allocation, the SPICE-subset reader,
   LKN1 snapshot round trips and their fail-closed loading, and the
   struct-of-arrays accessor contract against a brute-force pin scan. *)

module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Bench_format = Leakage_circuit.Bench_format
module Spice_format = Leakage_circuit.Spice_format
module Snapshot = Leakage_circuit.Snapshot
module Simulate = Leakage_circuit.Simulate
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Report = Leakage_spice.Leakage_report
module Suite = Leakage_benchmarks.Suite
module Trees = Leakage_benchmarks.Trees

let with_temp_file ?(suffix = ".bench") content f =
  let path = Filename.temp_file "leakage_ingest" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc content);
      f path)

let check_parse_error expect_line expect_sub thunk =
  match thunk () with
  | (_ : Netlist.t) -> Alcotest.failf "expected Parse_error %S" expect_sub
  | exception Bench_format.Parse_error (line, msg) ->
    Alcotest.(check int) "error line" expect_line line;
    let found =
      let n = String.length expect_sub and l = String.length msg in
      let rec scan i = i + n <= l && (String.sub msg i n = expect_sub || scan (i + 1)) in
      scan 0
    in
    if not found then Alcotest.failf "message %S does not mention %S" msg expect_sub

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec scan i = i + n <= l && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let corpus_circuit label = (Suite.find label).Suite.build ()

let simple_bench =
  "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nw = NAND(a, b)\ny = NOT(w)\n"

(* ------------------------------------------------- streaming .bench parse *)

let test_bench_crlf_equals_lf () =
  let lf = Bench_format.parse_string ~name:"c" simple_bench in
  let crlf_text =
    String.concat "\r\n" (String.split_on_char '\n' simple_bench)
  in
  let crlf = Bench_format.parse_string ~name:"c" crlf_text in
  Alcotest.(check string) "same digest" (Netlist.digest lf) (Netlist.digest crlf);
  Alcotest.(check int) "gates" 2 (Netlist.gate_count crlf)

let test_bench_file_crlf_no_final_newline () =
  (* CRLF endings and a final line with no newline at all: the regression
     fixture for the scanner's explicit trailing-\r strip. *)
  let text = "INPUT(a)\r\nOUTPUT(y)\r\ny = NOT(a)" in
  with_temp_file text (fun path ->
      let t = Bench_format.parse_file path in
      Alcotest.(check int) "one gate" 1 (Netlist.gate_count t);
      Alcotest.(check string) "clean PI name, no \\r" "a"
        (Netlist.net_name t (Netlist.inputs t).(0));
      Alcotest.(check string) "same circuit as LF text"
        (Netlist.digest (Bench_format.parse_string ~name:"c"
                           "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"))
        (Netlist.digest t))

let test_bench_blank_lines_cost_no_tables () =
  (* the reader's tables grow with the names and declarations it reads, so
     4M blank lines cost no table space *)
  let text = String.make 4_000_000 '\n' ^ "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n" in
  let before = (Gc.quick_stat ()).Gc.major_words in
  let t = Bench_format.parse_string ~name:"blank" text in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check int) "one gate" 1 (Netlist.gate_count t);
  if words >= 1e6 then
    Alcotest.failf "parsing allocated %.0f major-heap words" words

let test_bench_keyword_prefixed_names () =
  (* a SPICE deck whose internal nets start with INPUT/OUTPUT survives
     to_string -> parse_string: such a line is an assignment *)
  let deck =
    "X1 a b input_sel NAND2\nX2 input_sel c Output_en NOR2\n\
     X3 Output_en y INV\n"
  in
  let t = Spice_format.parse_string ~name:"kw" deck in
  let back = Bench_format.parse_string ~name:"kw" (Bench_format.to_string t) in
  Alcotest.(check string) "same digest" (Netlist.digest t) (Netlist.digest back);
  let u =
    Bench_format.parse_string ~name:"kw"
      "INPUT(a)\nINPUT (b)\nOUTPUT(y)\ninput_sel = NAND(a, b)\n\
       OUTPUTS= NOT(input_sel)\ny = BUFF(OUTPUTS)\n"
  in
  Alcotest.(check int) "three gates" 3 (Netlist.gate_count u);
  Alcotest.(check int) "two inputs" 2 (Array.length (Netlist.inputs u));
  (* a keyword line without '(' and without '=' stays malformed *)
  check_parse_error 2 "malformed INPUT line" (fun () ->
      Bench_format.parse_string ~name:"m" "INPUT(a)\nINPUT a\nOUTPUT(y)\ny = NOT(a)\n");
  check_parse_error 1 "malformed INPUT line" (fun () ->
      Bench_format.parse_string ~name:"m" "INPUT(a\nOUTPUT(y)\ny = NOT(a)\n");
  check_parse_error 2 "malformed OUTPUT line" (fun () ->
      Bench_format.parse_string ~name:"m" "INPUT(a)\noutput y\ny = NOT(a)\n")

(* --------------------------------------------------- .bench error paths *)

let test_bench_empty_file () =
  check_parse_error 0 "empty .bench" (fun () ->
      Bench_format.parse_string ~name:"e" "# only a comment\n\n");
  with_temp_file "" (fun path ->
      check_parse_error 0 "empty .bench" (fun () ->
          Bench_format.parse_file path))

let test_bench_truncated_mid_gate () =
  (* a file cut off in the middle of a gate line: no closing paren *)
  let text = "INPUT(a)\nINPUT(b)\ny = NAND(a," in
  with_temp_file text (fun path ->
      check_parse_error 3 "missing ')'" (fun () ->
          Bench_format.parse_file path))

let test_bench_duplicate_output () =
  let text = "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n" in
  check_parse_error 3 "duplicate OUTPUT declaration of y" (fun () ->
      Bench_format.parse_string ~name:"d" text)

let test_bench_duplicate_input () =
  let text = "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n" in
  check_parse_error 2 "duplicate INPUT declaration of a" (fun () ->
      Bench_format.parse_string ~name:"d" text)

let test_bench_unreadable_path () =
  match Bench_format.parse_file "/nonexistent/dir/missing.bench" with
  | (_ : Netlist.t) -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ()

let test_bench_rejects_infinite_strength () =
  (* 1e999 reads as +inf: a netlist holding it would be estimated in the
     library's 0.25x bucket *)
  check_parse_error 3 "strength must be finite and positive" (fun () ->
      Bench_format.parse_string ~name:"s"
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a)  # strength=1e999\n");
  check_parse_error 3 "strength must be finite and positive" (fun () ->
      Bench_format.parse_string ~name:"s"
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a)  # strength=-2\n")

let test_repr_rejects_infinite_strength () =
  let t = Bench_format.parse_string ~name:"r" simple_bench in
  let raw = Netlist.Repr.to_raw t in
  let strength =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
      (Netlist.gate_count t)
  in
  Bigarray.Array1.blit raw.Netlist.Repr.r_strength strength;
  Bigarray.Array1.set strength 1 infinity;
  match Netlist.Repr.of_raw { raw with Netlist.Repr.r_strength = strength } with
  | (_ : Netlist.t) -> Alcotest.fail "expected Failure for an infinite strength"
  | exception Failure msg ->
    if not (contains msg "strength") then
      Alcotest.failf "message %S does not mention the strength" msg

(* --------------------------------------------- mutated .bench encodings *)

(* The to_string encodings of the suite circuits plus one strength-annotated
   text: alu88 with its gates cycling through four drive strengths. *)
let bench_texts =
  lazy
    (let sized =
       let t = corpus_circuit "alu88" in
       let n = Netlist.gate_count t in
       Netlist.with_kinds_strengths t
         ~kinds:(Array.init n (Netlist.gate_kind t))
         ~strengths:(Array.init n (fun g -> [| 0.5; 1.0; 2.0; 4.0 |].(g mod 4)))
     in
     Array.of_list
       (List.map
          (fun (e : Suite.entry) -> (e.Suite.label, Bench_format.to_string (e.Suite.build ())))
          Suite.all
       @ [ ("alu88-sized", Bench_format.to_string sized) ]))

type text_mutation =
  | Cut of int                          (* keep a prefix *)
  | Overwrite of (int * char) list      (* 1-3 bytes *)
  | Splice of int * int * int           (* other text, cut here, cut there *)

(* A text of [texts] and a mutation of it: overwritten bytes are any byte
   or one the grammar gives meaning to ([special]). *)
let text_mutation_gen texts ~special =
  QCheck2.Gen.(
    let byte =
      oneof
        [ char; map (fun i -> special.[i]) (int_bound (String.length special - 1)) ]
    in
    let pos = int_bound 1_000_000 in
    let text = int_bound (Array.length (Lazy.force texts) - 1) in
    pair text
      (oneof
         [ map (fun n -> Cut n) pos;
           map (fun l -> Overwrite l) (list_size (int_range 1 3) (pair pos byte));
           map3 (fun j a b -> Splice (j, a, b)) text pos pos ]))

let mutate_text texts i m =
  let texts = Lazy.force texts in
  let _, t = texts.(i) in
  let len = String.length t in
  match m with
  | Cut n -> String.sub t 0 (n mod (len + 1))
  | Overwrite edits ->
    let b = Bytes.of_string t in
    List.iter (fun (p, c) -> Bytes.set b (p mod len) c) edits;
    Bytes.to_string b
  | Splice (j, a, b) ->
    let _, u = texts.(j) in
    let b = b mod (String.length u + 1) in
    String.sub t 0 (a mod (len + 1)) ^ String.sub u b (String.length u - b)

let print_text_mutation texts (i, m) =
  let texts = Lazy.force texts in
  fst texts.(i) ^ ": "
  ^
  match m with
  | Cut n -> Printf.sprintf "cut at %d" n
  | Overwrite edits ->
    String.concat "; "
      (List.map (fun (p, c) -> Printf.sprintf "byte %d := %C" p c) edits)
  | Splice (j, a, b) ->
    Printf.sprintf "prefix %d + suffix of %s from %d" a (fst texts.(j)) b

(* Every mutated encoding parses or raises Parse_error: nothing else
   escapes the reader. *)
let prop_bench_mutations_parse_or_fail =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~print:(print_text_mutation bench_texts)
       ~name:"mutated .bench encodings parse or raise Parse_error"
       (text_mutation_gen bench_texts ~special:"()=,#\r\n ")
       (fun (i, m) ->
         match Bench_format.parse_string ~name:"mut" (mutate_text bench_texts i m) with
         | (_ : Netlist.t) -> true
         | exception Bench_format.Parse_error _ -> true))

(* ------------------------------------------------------------ SPICE read *)

let spice_deck =
  String.concat "\n"
    [ "* extracted cell-level deck";
      ".subckt NAND2 a b y vdd vss";
      "M1 y a vdd vdd pmos w=2u";
      ".ends";
      "X1 a b w vdd vss NAND2 $ trailing comment";
      "X2 w";
      "+ y vdd";
      "+ vss INV m=2";
      ".end";
      "" ]

let test_spice_parse_basic () =
  let t = Spice_format.parse_string ~name:"deck" spice_deck in
  Alcotest.(check int) "two instances" 2 (Netlist.gate_count t);
  Alcotest.(check int) "PIs: a, b" 2 (Array.length (Netlist.inputs t));
  Alcotest.(check int) "POs: y" 1 (Array.length (Netlist.outputs t));
  Alcotest.(check string) "PO name" "y"
    (Netlist.net_name t (Netlist.outputs t).(0));
  (* X2's m=2 became drive strength; pin order in1..inN out held *)
  Alcotest.(check bool) "X1 is NAND2" true
    (Netlist.gate_kind t 0 = Gate.Nand 2);
  Alcotest.(check bool) "X2 is INV" true (Netlist.gate_kind t 1 = Gate.Inv);
  Alcotest.(check (float 0.0)) "multiplier -> strength" 2.0
    (Netlist.gate_strength t 1)

let test_spice_crlf_and_semicolon_comment () =
  let text = "X1 a y vdd 0 INV ; note\r\n" in
  let t = Spice_format.parse_string ~name:"d" text in
  Alcotest.(check int) "one gate" 1 (Netlist.gate_count t);
  Alcotest.(check string) "output net" "y"
    (Netlist.net_name t (Netlist.gate_out t 0))

let spice_error expect_line expect_sub text =
  match Spice_format.parse_string ~name:"d" text with
  | (_ : Netlist.t) -> Alcotest.failf "expected Parse_error %S" expect_sub
  | exception Spice_format.Parse_error (line, msg) ->
    Alcotest.(check int) "error line" expect_line line;
    if not (contains msg expect_sub) then
      Alcotest.failf "message %S does not mention %S" msg expect_sub

let test_spice_errors () =
  spice_error 0 "empty SPICE netlist" "* nothing here\n.end\n";
  spice_error 1 "unknown cell" "X1 a y FROB\n";
  spice_error 1 "unsupported element" "M1 d g s b nmos w=1u\n";
  spice_error 2 "driven twice" "X1 a y INV\nX2 b y INV\n";
  spice_error 1 "expects 2 logic pins + output" "X1 a y NAND2\n";
  spice_error 1 "bad device multiplier" "X1 a y INV m=-3\n";
  (* an infinite multiplier is no strength a netlist may hold *)
  spice_error 1 "bad device multiplier" "X1 a y INV m=1e999\n";
  (* combinational cycle: blamed on an instance in the loop *)
  spice_error 1 "combinational cycle" "X1 b a INV\nX2 a b INV\n"

let test_spice_unreadable_path () =
  match Spice_format.parse_file "/nonexistent/dir/missing.sp" with
  | (_ : Netlist.t) -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ()

(* -------------------------------------------------------- LKN1 snapshots *)

let with_snapshot t f =
  let path = Filename.temp_file "leakage_snap" ".lkn" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Snapshot.save path t;
      f path)

let coarse_grid = { Characterize.max_current = 3.0e-6; points = 5 }
let lib = lazy (Library.create ~grid:coarse_grid ~device:Leakage_device.Params.d25 ~temp:300.0 ())

let test_snapshot_roundtrip () =
  let t = Bench_format.parse_string ~name:"rt" simple_bench in
  with_snapshot t (fun path ->
      Alcotest.(check string) "header digest" (Netlist.digest t)
        (Snapshot.digest_of_file path);
      let u = Snapshot.load path in
      Alcotest.(check string) "digest" (Netlist.digest t) (Netlist.digest u);
      Alcotest.(check string) "name" (Netlist.name t) (Netlist.name u);
      Alcotest.(check int) "gates" (Netlist.gate_count t) (Netlist.gate_count u);
      Alcotest.(check int) "nets" (Netlist.net_count t) (Netlist.net_count u);
      for net = 0 to Netlist.net_count t - 1 do
        Alcotest.(check string) "net name" (Netlist.net_name t net)
          (Netlist.net_name u net)
      done;
      (* estimates through the mapped arrays are bit-identical *)
      let lib = Lazy.force lib in
      let pattern = Logic.vector_of_string "01" in
      let (tot_t, base_t) = Estimator.estimate_totals lib t pattern in
      let (tot_u, base_u) = Estimator.estimate_totals lib u pattern in
      Alcotest.(check bool) "bit-identical totals" true (tot_t = tot_u);
      Alcotest.(check bool) "bit-identical baseline" true (base_t = base_u))

let test_snapshot_roundtrip_unverified () =
  let t = Bench_format.parse_string ~name:"rt" simple_bench in
  with_snapshot t (fun path ->
      let u = Snapshot.load ~verify:false path in
      Alcotest.(check string) "digest" (Netlist.digest t) (Netlist.digest u))

let snapshot_error expect_sub thunk =
  match thunk () with
  | _ -> Alcotest.failf "expected Snapshot_error %S" expect_sub
  | exception Snapshot.Snapshot_error msg ->
    if not (contains msg expect_sub) then
      Alcotest.failf "message %S does not mention %S" msg expect_sub

let test_snapshot_rejects_garbage () =
  with_temp_file ~suffix:".lkn" "not a snapshot" (fun path ->
      snapshot_error "too small" (fun () -> Snapshot.load path));
  with_temp_file ~suffix:".lkn" (String.make 8192 '\000') (fun path ->
      snapshot_error "bad magic" (fun () -> Snapshot.load path))

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let test_snapshot_rejects_truncation () =
  (* intact header, file cut short: the size equation fails closed before
     any mapping is dereferenced — an error, never a SIGBUS *)
  let t = Bench_format.parse_string ~name:"tr" simple_bench in
  with_snapshot t (fun path ->
      let data = read_all path in
      write_all path (String.sub data 0 (String.length data - 4096));
      snapshot_error "truncated" (fun () -> Snapshot.load path);
      (* the size check is part of the always-on fail-closed set *)
      snapshot_error "truncated" (fun () -> Snapshot.load ~verify:false path))

let test_snapshot_rejects_header_corruption () =
  let t = Bench_format.parse_string ~name:"hc" simple_bench in
  with_snapshot t (fun path ->
      let data = Bytes.of_string (read_all path) in
      (* flip a count byte: the header checksum no longer matches *)
      Bytes.set data 9 (Char.chr (Char.code (Bytes.get data 9) lxor 0xff));
      write_all path (Bytes.to_string data);
      snapshot_error "checksum mismatch" (fun () -> Snapshot.load path))

let test_snapshot_detects_payload_corruption () =
  let t = Bench_format.parse_string ~name:"pc" simple_bench in
  with_snapshot t (fun path ->
      let data = Bytes.of_string (read_all path) in
      (* perturb the low mantissa byte of gate 0's strength (the strength
         section starts at page 3): the file stays structurally valid, but
         the recomputed digest disagrees with the header *)
      Bytes.set data (3 * 4096) '\x01';
      write_all path (Bytes.to_string data);
      snapshot_error "digest mismatch" (fun () -> Snapshot.load path))

let test_snapshot_unreadable_path () =
  snapshot_error "cannot open" (fun () ->
      Snapshot.load "/nonexistent/dir/missing.lkn")

(* The LKN1 header checksum: FNV-1a over bytes 0..103 with the checksum
   field (bytes 104..111) zeroed. Re-stamping it lets a test forge a header
   that passes the checksum and must fail a later header check. *)
let restamp_checksum b =
  Bytes.set_int64_le b 104 0L;
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to 103 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i))))
        0x100000001b3L
  done;
  Bytes.set_int64_le b 104 !h

let test_snapshot_header_checks_shared () =
  let foreign_endian = if Sys.big_endian then '\001' else '\002' in
  with_snapshot (corpus_circuit "alu88") (fun path ->
      let intact = read_all path in
      List.iter
        (fun (pos, byte, expect) ->
          let b = Bytes.of_string intact in
          Bytes.set b pos byte;
          restamp_checksum b;
          write_all path (Bytes.to_string b);
          snapshot_error expect (fun () -> Snapshot.load path);
          snapshot_error expect (fun () -> Snapshot.digest_of_file path))
        [ (4, '\002', "unsupported LKN1 version");
          (5, '\004', "word size");
          (6, foreign_endian, "endianness mismatch");
          (72, 'Z', "malformed digest") ])

let corpus_snapshots =
  lazy
    (Array.of_list
       (List.map
          (fun label ->
            let t = corpus_circuit label in
            let data = ref "" in
            with_snapshot t (fun path -> data := read_all path);
            (label, Netlist.digest t, !data))
          [ "s838"; "alu88"; "mult88" ]))

type mutation =
  | Truncate of int
  | Flip_bit of int * int
  | Set_byte of int * char  (* within the first two pages *)
  | Splice_header of int    (* header page of this corpus entry *)

let mutate data = function
  | Truncate n -> String.sub data 0 (n mod String.length data)
  | Flip_bit (pos, bit) ->
    let b = Bytes.of_string data in
    let pos = pos mod Bytes.length b in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    Bytes.to_string b
  | Set_byte (pos, c) ->
    let b = Bytes.of_string data in
    Bytes.set b (pos mod Stdlib.min 8192 (Bytes.length b)) c;
    Bytes.to_string b
  | Splice_header i ->
    let _, _, other = (Lazy.force corpus_snapshots).(i) in
    String.sub other 0 4096 ^ String.sub data 4096 (String.length data - 4096)

let mutation_gen =
  QCheck2.Gen.(
    let pos = int_bound 1_000_000 in
    pair (int_bound 2)
      (oneof
         [ map (fun n -> Truncate n) pos;
           map2 (fun p bit -> Flip_bit (p, bit)) pos (int_bound 7);
           map2 (fun p c -> Set_byte (p, c)) pos char;
           map (fun i -> Splice_header i) (int_bound 2) ]))

let print_mutation (i, m) =
  let label, _, _ = (Lazy.force corpus_snapshots).(i) in
  label ^ ": "
  ^
  match m with
  | Truncate n -> Printf.sprintf "truncate at %d" n
  | Flip_bit (p, bit) -> Printf.sprintf "flip bit %d of byte %d" bit p
  | Set_byte (p, c) -> Printf.sprintf "set byte %d to %C" p c
  | Splice_header j -> Printf.sprintf "header of entry %d" j

(* Mutated snapshots of golden-corpus circuits fail closed: [load] and
   [digest_of_file] return or raise [Snapshot_error], nothing else. A load
   that succeeds has the digest of the circuit whose header the file
   carries, and so does any digest [digest_of_file] reports. *)
let prop_snapshot_mutations_fail_closed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~print:print_mutation
       ~name:"mutated golden-corpus snapshots fail closed" mutation_gen
       (fun (i, m) ->
         let corpus = Lazy.force corpus_snapshots in
         let _, _, data = corpus.(i) in
         let header_source = match m with Splice_header j -> j | _ -> i in
         let _, expected, _ = corpus.(header_source) in
         let path = Filename.temp_file "leakage_mut" ".lkn" in
         Fun.protect
           ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
           (fun () ->
             write_all path (mutate data m);
             let loaded =
               match Snapshot.load path with
               | u -> Netlist.digest u = expected
               | exception Snapshot.Snapshot_error _ -> true
             in
             let reported =
               match Snapshot.digest_of_file path with
               | d -> d = expected
               | exception Snapshot.Snapshot_error _ -> true
             in
             loaded && reported)))

(* ---------------------------------- SoA accessors vs a brute-force scan *)

(* Every derived lookup (per-pin iteration, driver ids, the fanout CSR and
   the topological order) must agree with a direct scan of [gate_pin] in
   ascending (gate, pin) order. *)
let check_accessors_against_pin_scan t =
  let n_gates = Netlist.gate_count t and n_nets = Netlist.net_count t in
  (* the arguments of every callback, in call order *)
  let calls iter =
    let acc = ref [] in
    iter (fun x -> acc := x :: !acc);
    List.rev !acc
  in
  let driver = Array.make n_nets (-1) and readers = Array.make n_nets [] in
  for g = 0 to n_gates - 1 do
    driver.(Netlist.gate_out t g) <- g;
    let pins = List.init (Netlist.gate_arity t g) (fun p -> (p, Netlist.gate_pin t g p)) in
    Alcotest.(check (list (pair int int))) "iter_pins" pins
      (calls (fun f -> Netlist.iter_pins t g (fun p net -> f (p, net))));
    List.iter (fun (_, net) -> readers.(net) <- g :: readers.(net)) pins
  done;
  for net = 0 to n_nets - 1 do
    let scan = List.rev readers.(net) in
    Alcotest.(check int) "driver id" driver.(net) (Netlist.driver_id t net);
    Alcotest.(check (list int)) "fanout order" scan (calls (Netlist.iter_fanout t net));
  done;
  let order = Netlist.topo_ids t in
  Alcotest.(check (list int)) "topo is a permutation"
    (List.init n_gates Fun.id)
    (List.sort compare (Array.to_list order));
  let position = Array.make n_gates 0 in
  Array.iteri (fun pos g -> position.(g) <- pos) order;
  for g = 0 to n_gates - 1 do
    for p = 0 to Netlist.gate_arity t g - 1 do
      let d = driver.(Netlist.gate_pin t g p) in
      if d >= 0 && position.(d) >= position.(g) then
        Alcotest.failf "gate %d precedes its fan-in driver %d" g d
    done
  done

let test_soa_accessors_match_pin_scan () =
  List.iter check_accessors_against_pin_scan
    [
      Bench_format.parse_string ~name:"soa" simple_bench;
      (* a gate reading one net on two pins, and a net read by three gates *)
      Bench_format.parse_string ~name:"dup"
        "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\nw = NAND(a, a)\n\
         y = NOR(w, a)\nz = NOT(w)\n";
      Leakage_benchmarks.Iscas.generate_by_name "s838";
    ]

let test_spice_simulates_like_bench () =
  (* the same 2-gate circuit through both front ends computes identically *)
  let b = Bench_format.parse_string ~name:"c" simple_bench in
  let s =
    Spice_format.parse_string ~name:"c"
      "X1 a b w vdd NAND2\nX2 w y 0 INV\n"
  in
  Alcotest.(check string) "same structure" (Netlist.digest b) (Netlist.digest s);
  let run t v =
    let values = Simulate.run t (Logic.vector_of_string v) in
    Logic.to_char values.((Netlist.outputs t).(0))
  in
  List.iter
    (fun v -> Alcotest.(check char) v (run b v) (run s v))
    [ "00"; "01"; "10"; "11" ]

(* The suite circuits as X-instance decks using every construct the reader
   gives meaning to: a [+] continuation inside every third instance, an
   [m=2] multiplier on every fourth, a [$] comment on every fifth, supply
   pins, and CRLF endings. *)
let spice_texts =
  lazy
    (Array.of_list
       (List.map
          (fun (e : Suite.entry) ->
            let t = e.Suite.build () in
            let b = Buffer.create 65536 in
            Buffer.add_string b "* suite deck\r\n";
            for g = 0 to Netlist.gate_count t - 1 do
              Printf.bprintf b "X%d" g;
              Netlist.iter_pins t g (fun p net ->
                  if p = 1 && g mod 3 = 0 then Buffer.add_string b "\r\n+";
                  Printf.bprintf b " %s" (Netlist.net_name t net));
              Printf.bprintf b " %s vdd vss %s"
                (Netlist.net_name t (Netlist.gate_out t g))
                (Gate.name (Netlist.gate_kind t g));
              if g mod 4 = 0 then Buffer.add_string b " m=2";
              if g mod 5 = 0 then Buffer.add_string b " $ note";
              Buffer.add_string b "\r\n"
            done;
            Buffer.add_string b ".end\r\n";
            (e.Suite.label, Buffer.contents b))
          Suite.all))

let test_spice_suite_decks () =
  Array.iter
    (fun (label, text) ->
      let t = Spice_format.parse_string ~name:label text in
      let n = Netlist.gate_count ((Suite.find label).Suite.build ()) in
      Alcotest.(check int) (label ^ " instances") n (Netlist.gate_count t);
      Alcotest.(check (float 0.0)) (label ^ " m=2 strength") 2.0
        (Netlist.gate_strength t 0))
    (Lazy.force spice_texts)

(* Truncations, overwritten bytes and splices of those decks: every one
   parses or raises Parse_error, never anything else. *)
let prop_spice_mutations_parse_or_fail =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~print:(print_text_mutation spice_texts)
       ~name:"mutated SPICE decks parse or raise Parse_error"
       (text_mutation_gen spice_texts ~special:"X+.$;*=\r\n")
       (fun (i, m) ->
         match Spice_format.parse_string ~name:"mut" (mutate_text spice_texts i m) with
         | (_ : Netlist.t) -> true
         | exception Spice_format.Parse_error _ -> true))

(* ------------------------------------------------------------ .bench writer *)

(* Named nets, every complex cell (decomposed through "__<out>_t<i>"
   helpers) and strengths that [%g] prints with and without a fraction. *)
let writer_cells () =
  let module B = Netlist.Builder in
  let b = B.create "writer_cells" in
  let i = Array.init 4 (fun k -> B.input ~name:(Printf.sprintf "in%d" k) b) in
  let x = B.gate ~name:"x" ~strength:0.75 b Gate.Aoi21 [| i.(0); i.(1); i.(2) |] in
  let y = B.gate ~strength:1.5 b Gate.Aoi22 [| i.(0); i.(1); i.(2); i.(3) |] in
  let z = B.gate ~name:"z_out" ~strength:3.0 b Gate.Oai21 [| x; y; i.(3) |] in
  let w = B.gate b Gate.Oai22 [| x; y; z; i.(1) |] in
  let v = B.gate ~strength:1e-3 b (Gate.Nand 3) [| w; z; i.(0) |] in
  let u = B.gate b Gate.Xnor [| v; w |] in
  B.mark_output b u;
  B.mark_output b z;
  B.finish b

(* MD5s of [Bench_format.to_string]: the writer's output is pinned byte for
   byte on the suite circuits, a tapped chain and the cell mix above. *)
let writer_pins =
  List.map
    (fun (e : Suite.entry) -> (e.Suite.label, e.Suite.build))
    Suite.all
  @ [ ("chain4k", fun () -> Trees.chain ~stages:4096 ~tap_every:64 ());
      ("writer_cells", writer_cells) ]

let writer_digests =
  [
    ("s838", "6d6c93294c9334b8c3f875520d74a345");
    ("s1196", "3454bd4314c352c0aa97c088f116b441");
    ("s1423", "ddfb6d56a497aa90919108e10f5ddbf4");
    ("s5378", "ff092eb754b51bc3ad1a2fde68b4e7f4");
    ("s9234", "7dc6417ec4c624bd5f5eb1c6bfdbd39e");
    ("s13207", "1fc665fb5097ddde7c0538ec989ad56c");
    ("alu88", "f128ddc8b35ccb89d27a3c6666c2a380");
    ("mult88", "9d6fe992b5e9ae464fa7bf6462acf657");
    ("chain4k", "5e3cb6440ee1b599bb8c5f916b23d354");
    ("writer_cells", "408b3c86c76c590b7f2b877c68a28345");
  ]

let test_bench_writer_bytes () =
  List.iter
    (fun (label, expected) ->
      let nl = (List.assoc label writer_pins) () in
      let text = Bench_format.to_string nl in
      Alcotest.(check string) (label ^ " to_string") expected
        (Digest.to_hex (Digest.string text));
      let path = Filename.temp_file "leakage_writer" ".bench" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Bench_format.write_file path nl;
          let ic = open_in_bin path in
          let written =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Alcotest.(check bool) (label ^ " write_file = to_string") true
            (String.equal written text)))
    writer_digests

(* Allocation gate: the writer renders into one reused buffer and copies
   names byte by byte, so a gate costs its boxed strength read, plus a
   complex cell's decomposition helpers; each distinct strength's
   annotation is rendered once per call. Measured with [write_file]: 2.00
   words per gate on the tapped chain and 2.66 on s13207; each bound is
   25% above. *)
let test_bench_writer_minor_words () =
  List.iter
    (fun (nl, bound) ->
      let path = Filename.temp_file "leakage_writer" ".bench" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let w0 = Gc.minor_words () in
          Bench_format.write_file path nl;
          let per_gate =
            (Gc.minor_words () -. w0) /. float_of_int (Netlist.gate_count nl)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %.2f words per gate (bound %g)"
               (Netlist.name nl) per_gate bound)
            true (per_gate <= bound)))
    [
      (Trees.chain ~stages:16384 ~tap_every:64 (), 2.5);
      ((Suite.find "s13207").Suite.build (), 3.33);
    ]

(* Every strength reads back bit for bit, through text and through a file:
   those [%g] prints exactly and those it would round. *)
let test_bench_writer_exact_strengths () =
  let strengths =
    [| 0.75; 1.5; 3.0; 1e-3; 2.0; 4.0; 0.5; 1.2345678; 1.0 /. 3.0; 123456789.0 |]
  in
  let module B = Netlist.Builder in
  let b = B.create "sized" in
  let prev = ref (B.input ~name:"a" b) in
  Array.iter (fun strength -> prev := B.gate ~strength b Gate.Inv [| !prev |]) strengths;
  B.mark_output b !prev;
  let nl = B.finish b in
  let bits t =
    List.sort compare
      (List.init (Netlist.gate_count t) (fun g -> Int64.bits_of_float (Netlist.gate_strength t g)))
  in
  let check label t =
    Alcotest.(check (list int64)) (label ^ ": strengths") (bits nl) (bits t);
    Alcotest.(check string) (label ^ ": digest") (Netlist.digest nl) (Netlist.digest t)
  in
  check "to_string" (Bench_format.parse_string ~name:"sized" (Bench_format.to_string nl));
  let path = Filename.temp_file "leakage_sized" ".bench" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Bench_format.write_file path nl;
      check "write_file" (Bench_format.parse_file path))

(* [a] and [b] are the same netlist, gate by gate and net by net. *)
let check_same_netlist label a b =
  Alcotest.(check string) (label ^ ": digest") (Netlist.digest a) (Netlist.digest b);
  Alcotest.(check int) (label ^ ": gates") (Netlist.gate_count a) (Netlist.gate_count b);
  Alcotest.(check int) (label ^ ": nets") (Netlist.net_count a) (Netlist.net_count b);
  Alcotest.(check (array int)) (label ^ ": inputs") (Netlist.inputs a) (Netlist.inputs b);
  Alcotest.(check (array int)) (label ^ ": outputs") (Netlist.outputs a) (Netlist.outputs b);
  for n = 0 to Netlist.net_count a - 1 do
    Alcotest.(check string) (label ^ ": net name") (Netlist.net_name a n) (Netlist.net_name b n)
  done;
  for g = 0 to Netlist.gate_count a - 1 do
    let shape t =
      ( Gate.name (Netlist.gate_kind t g),
        Int64.bits_of_float (Netlist.gate_strength t g),
        Netlist.gate_out t g,
        List.init (Netlist.gate_arity t g) (Netlist.gate_pin t g) )
    in
    if shape a <> shape b then Alcotest.failf "%s: gate %d differs" label g
  done

(* [parse_file] reads 64 KiB chunks: every suite circuit it reads from a
   [write_file] file (s5378 and up span several chunks, lines cut at
   every boundary) is the netlist [parse_string] makes of the same text. *)
let test_bench_file_equals_string () =
  List.iter
    (fun (e : Suite.entry) ->
      let label = e.Suite.label in
      let path = Filename.temp_file ("leakage_" ^ label) ".bench" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Bench_format.write_file path (e.Suite.build ());
          check_same_netlist label
            (Bench_format.parse_string ~name:label (read_all path))
            (Bench_format.parse_file path)))
    Suite.all

(* A line longer than a chunk grows the buffer: an input name of 100 KB,
   declared and then read, parses from a file as from a string. *)
let test_bench_line_longer_than_chunk () =
  let long = String.init 100_000 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let text = Printf.sprintf "INPUT(%s)\nOUTPUT(y)\ny = NOT(%s)  # strength=2\n" long long in
  with_temp_file text (fun path ->
      let t = Bench_format.parse_file path in
      Alcotest.(check string) "long input name" long (Netlist.net_name t (Netlist.inputs t).(0));
      Alcotest.(check (float 0.0)) "strength" 2.0 (Netlist.gate_strength t 0);
      check_same_netlist "long line"
        (Bench_format.parse_string ~name:(Filename.remove_extension (Filename.basename path)) text)
        t)

(* [parse_file] never seeks: s13207's text written into a FIFO by a forked
   writer parses to the netlist [parse_string] makes of it. *)
let test_bench_file_from_pipe () =
  let text = Bench_format.to_string (corpus_circuit "s13207") in
  let dir = Filename.temp_file "leakage_fifo" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s13207.bench" in
  Unix.mkfifo path 0o600;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.fork () with
      | 0 ->
        (try
           let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
           ignore (Unix.write_substring fd text 0 (String.length text));
           Unix.close fd
         with _ -> ());
        Unix._exit 0
      | pid ->
        let parsed =
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid))
            (fun () -> Bench_format.parse_file path)
        in
        check_same_netlist "pipe" (Bench_format.parse_string ~name:"s13207" text) parsed)

let () =
  Alcotest.run "ingest"
    [
      ( "bench-streaming",
        [
          Alcotest.test_case "crlf equals lf" `Quick test_bench_crlf_equals_lf;
          Alcotest.test_case "crlf + no final newline" `Quick
            test_bench_file_crlf_no_final_newline;
          Alcotest.test_case "blank lines cost no tables" `Quick
            test_bench_blank_lines_cost_no_tables;
          Alcotest.test_case "INPUT/OUTPUT-prefixed names" `Quick
            test_bench_keyword_prefixed_names;
          Alcotest.test_case "file = string across chunks" `Quick
            test_bench_file_equals_string;
          Alcotest.test_case "line longer than a chunk" `Quick
            test_bench_line_longer_than_chunk;
          Alcotest.test_case "file from a pipe" `Quick test_bench_file_from_pipe;
        ] );
      ( "bench-writer",
        [
          Alcotest.test_case "pinned bytes" `Quick test_bench_writer_bytes;
          Alcotest.test_case "minor words per gate" `Quick
            test_bench_writer_minor_words;
          Alcotest.test_case "exact strengths round-trip" `Quick
            test_bench_writer_exact_strengths;
        ] );
      ( "bench-errors",
        [
          Alcotest.test_case "empty file" `Quick test_bench_empty_file;
          Alcotest.test_case "truncated mid-gate" `Quick
            test_bench_truncated_mid_gate;
          Alcotest.test_case "duplicate OUTPUT" `Quick test_bench_duplicate_output;
          Alcotest.test_case "duplicate INPUT" `Quick test_bench_duplicate_input;
          Alcotest.test_case "unreadable path" `Quick test_bench_unreadable_path;
          Alcotest.test_case "infinite strength" `Quick
            test_bench_rejects_infinite_strength;
          prop_bench_mutations_parse_or_fail;
        ] );
      ( "spice",
        [
          Alcotest.test_case "basic deck" `Quick test_spice_parse_basic;
          Alcotest.test_case "crlf + ; comment" `Quick
            test_spice_crlf_and_semicolon_comment;
          Alcotest.test_case "error paths" `Quick test_spice_errors;
          Alcotest.test_case "unreadable path" `Quick test_spice_unreadable_path;
          Alcotest.test_case "matches .bench semantics" `Quick
            test_spice_simulates_like_bench;
          Alcotest.test_case "suite decks" `Quick test_spice_suite_decks;
          prop_spice_mutations_parse_or_fail;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "roundtrip unverified" `Quick
            test_snapshot_roundtrip_unverified;
          Alcotest.test_case "rejects garbage" `Quick test_snapshot_rejects_garbage;
          Alcotest.test_case "rejects truncation" `Quick
            test_snapshot_rejects_truncation;
          Alcotest.test_case "rejects header corruption" `Quick
            test_snapshot_rejects_header_corruption;
          Alcotest.test_case "detects payload corruption" `Quick
            test_snapshot_detects_payload_corruption;
          Alcotest.test_case "unreadable path" `Quick test_snapshot_unreadable_path;
          Alcotest.test_case "header checks shared by digest_of_file" `Quick
            test_snapshot_header_checks_shared;
          Alcotest.test_case "of_raw rejects an infinite strength" `Quick
            test_repr_rejects_infinite_strength;
          prop_snapshot_mutations_fail_closed;
        ] );
      ( "soa",
        [
          Alcotest.test_case "accessors match a pin scan" `Quick
            test_soa_accessors_match_pin_scan;
        ] );
    ]
