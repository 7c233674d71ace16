(* Ingestion hardening tests: streaming .bench parsing (CRLF, missing final
   newline, duplicate declarations, truncation), the SPICE-subset reader,
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
     fixture for the explicit trailing-\r strip in the line reader. *)
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

let test_bench_parse_lines_streaming () =
  (* drive the core streaming entry point one line at a time *)
  let lines = ref (String.split_on_char '\n' simple_bench) in
  let next () =
    match !lines with
    | [] -> None
    | l :: rest -> lines := rest; Some l
  in
  let t = Bench_format.parse_lines ~name:"streamed" next in
  Alcotest.(check string) "same digest"
    (Netlist.digest (Bench_format.parse_string ~name:"c" simple_bench))
    (Netlist.digest t)

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

let corpus_circuit label = (Suite.find label).Suite.build ()

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

let () =
  Alcotest.run "ingest"
    [
      ( "bench-streaming",
        [
          Alcotest.test_case "crlf equals lf" `Quick test_bench_crlf_equals_lf;
          Alcotest.test_case "crlf + no final newline" `Quick
            test_bench_file_crlf_no_final_newline;
          Alcotest.test_case "parse_lines" `Quick test_bench_parse_lines_streaming;
        ] );
      ( "bench-errors",
        [
          Alcotest.test_case "empty file" `Quick test_bench_empty_file;
          Alcotest.test_case "truncated mid-gate" `Quick
            test_bench_truncated_mid_gate;
          Alcotest.test_case "duplicate OUTPUT" `Quick test_bench_duplicate_output;
          Alcotest.test_case "duplicate INPUT" `Quick test_bench_duplicate_input;
          Alcotest.test_case "unreadable path" `Quick test_bench_unreadable_path;
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
          prop_snapshot_mutations_fail_closed;
        ] );
      ( "soa",
        [
          Alcotest.test_case "accessors match a pin scan" `Quick
            test_soa_accessors_match_pin_scan;
        ] );
    ]
