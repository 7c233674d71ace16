(* Tests of the gate/netlist layer: truth tables, stage decompositions,
   netlist construction and validation, .bench round trips, topological
   ordering and logic simulation. *)

module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Bench_format = Leakage_circuit.Bench_format
module Simulate = Leakage_circuit.Simulate
module Verilog = Leakage_circuit.Verilog
module Rng = Leakage_numeric.Rng

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------------------------------------------------------- Logic *)

let test_logic_chars () =
  Alcotest.(check char) "one" '1' (Logic.to_char Logic.One);
  Alcotest.(check bool) "roundtrip" true (Logic.of_char '0' = Logic.Zero);
  Alcotest.check_raises "bad char" (Invalid_argument "Logic.of_char: x")
    (fun () -> ignore (Logic.of_char 'x'))

let test_logic_vector_strings () =
  let v = Logic.vector_of_string "0110" in
  Alcotest.(check string) "roundtrip" "0110" (Logic.vector_to_string v);
  Alcotest.(check int) "as int" 6 (Logic.int_of_vector v)

let test_logic_vector_of_int () =
  Alcotest.(check string) "big endian" "101"
    (Logic.vector_to_string (Logic.vector_of_int ~width:3 5))

let test_logic_all_vectors () =
  let vs = Logic.all_vectors 2 in
  Alcotest.(check (list string)) "counting order"
    [ "00"; "01"; "10"; "11" ]
    (List.map Logic.vector_to_string vs)

let test_logic_lnot () =
  Alcotest.(check bool) "involution" true
    (Logic.lnot (Logic.lnot Logic.One) = Logic.One)

let prop_int_vector_roundtrip =
  qtest "vector_of_int / int_of_vector round trip"
    QCheck2.Gen.(int_bound 255)
    (fun n -> Logic.int_of_vector (Logic.vector_of_int ~width:8 n) = n)

(* ----------------------------------------------------------------- Gate *)

let reference_eval kind (ins : bool array) =
  let conj = Array.for_all Fun.id ins and disj = Array.exists Fun.id ins in
  match kind with
  | Gate.Inv -> not ins.(0)
  | Gate.Buf -> ins.(0)
  | Gate.Nand _ -> not conj
  | Gate.And _ -> conj
  | Gate.Nor _ -> not disj
  | Gate.Or _ -> disj
  | Gate.Xor -> ins.(0) <> ins.(1)
  | Gate.Xnor -> ins.(0) = ins.(1)
  | Gate.Aoi21 -> not ((ins.(0) && ins.(1)) || ins.(2))
  | Gate.Aoi22 -> not ((ins.(0) && ins.(1)) || (ins.(2) && ins.(3)))
  | Gate.Oai21 -> not ((ins.(0) || ins.(1)) && ins.(2))
  | Gate.Oai22 -> not ((ins.(0) || ins.(1)) && (ins.(2) || ins.(3)))

let test_gate_truth_tables () =
  List.iter
    (fun kind ->
      let n = Gate.arity kind in
      List.iter
        (fun v ->
          let ins = Array.map Logic.to_bool v in
          Alcotest.(check bool)
            (Printf.sprintf "%s(%s)" (Gate.name kind) (Logic.vector_to_string v))
            (reference_eval kind ins) (Gate.eval kind ins))
        (Logic.all_vectors n))
    Gate.all_kinds

let test_gate_arity_check () =
  Alcotest.(check int) "nand3" 3 (Gate.arity (Gate.Nand 3));
  Alcotest.check_raises "nand5 rejected"
    (Invalid_argument "Gate: NAND5 unsupported (fan-in 2-4)") (fun () ->
      ignore (Gate.arity (Gate.Nand 5)))

let test_gate_eval_arity_mismatch () =
  Alcotest.check_raises "wrong input count"
    (Invalid_argument "Gate.eval: NAND2 expects 2 inputs, got 3") (fun () ->
      ignore (Gate.eval (Gate.Nand 2) [| true; true; false |]))

let test_gate_names_roundtrip () =
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        ("name roundtrip " ^ Gate.name kind)
        true
        (Gate.of_name (Gate.name kind) = kind))
    Gate.all_kinds

let test_gate_of_name_aliases () =
  Alcotest.(check bool) "NOT" true (Gate.of_name "NOT" = Gate.Inv);
  Alcotest.(check bool) "BUFF" true (Gate.of_name "buff" = Gate.Buf);
  Alcotest.(check bool) "XOR" true (Gate.of_name "xor" = Gate.Xor);
  Alcotest.check_raises "garbage"
    (Invalid_argument "Gate.of_name: unknown cell \"FROB\"") (fun () ->
      ignore (Gate.of_name "FROB"))

(* Evaluate a cell through its stage decomposition and compare with the
   boolean function — this pins the transistor-level topologies to the
   logic-level semantics for every cell and vector. *)
let eval_via_stages kind (ins : bool array) =
  let cell = Gate.decompose kind in
  let internal = Array.make (Stdlib.max 1 cell.Gate.internal_count) false in
  let out = ref false in
  Array.iter
    (fun (st : Gate.stage) ->
      let stage_in =
        Array.map
          (function
            | Gate.Cell_input i -> ins.(i)
            | Gate.Internal i -> internal.(i))
          st.Gate.stage_inputs
      in
      let v = Gate.stage_eval st.Gate.stage_kind stage_in in
      match st.Gate.stage_output with
      | Gate.Cell_output -> out := v
      | Gate.Internal_out i -> internal.(i) <- v)
    cell.Gate.stages;
  !out

let test_gate_decompose_semantics () =
  List.iter
    (fun kind ->
      List.iter
        (fun v ->
          let ins = Array.map Logic.to_bool v in
          Alcotest.(check bool)
            (Printf.sprintf "stages of %s on %s" (Gate.name kind)
               (Logic.vector_to_string v))
            (Gate.eval kind ins) (eval_via_stages kind ins))
        (Logic.all_vectors (Gate.arity kind)))
    Gate.all_kinds

let test_gate_decompose_single_output_stage () =
  List.iter
    (fun kind ->
      let cell = Gate.decompose kind in
      let outputs =
        Array.to_list cell.Gate.stages
        |> List.filter (fun (s : Gate.stage) -> s.Gate.stage_output = Gate.Cell_output)
      in
      Alcotest.(check int) ("one output stage in " ^ Gate.name kind) 1
        (List.length outputs))
    Gate.all_kinds

let test_gate_transistor_counts () =
  Alcotest.(check int) "INV" 2 (Gate.transistor_count Gate.Inv);
  Alcotest.(check int) "NAND2" 4 (Gate.transistor_count (Gate.Nand 2));
  Alcotest.(check int) "NAND4" 8 (Gate.transistor_count (Gate.Nand 4));
  Alcotest.(check int) "AND2" 6 (Gate.transistor_count (Gate.And 2));
  Alcotest.(check int) "BUF" 4 (Gate.transistor_count Gate.Buf);
  Alcotest.(check int) "XOR2 (4 nand2)" 16 (Gate.transistor_count Gate.Xor);
  Alcotest.(check int) "XNOR2" 18 (Gate.transistor_count Gate.Xnor);
  Alcotest.(check int) "AOI21 single stage" 6 (Gate.transistor_count Gate.Aoi21);
  Alcotest.(check int) "OAI22 single stage" 8 (Gate.transistor_count Gate.Oai22)

let test_gate_stack_sizing () =
  Alcotest.(check (float 0.0)) "nand3 nmos upsized" 3.0
    (Gate.nmos_width Gate.Stage_nand 3);
  Alcotest.(check (float 0.0)) "nor3 pmos upsized" 6.0
    (Gate.pmos_width Gate.Stage_nor 3);
  Alcotest.(check (float 0.0)) "inv nmos" 1.0 (Gate.nmos_width Gate.Stage_inv 1);
  Alcotest.(check (float 0.0)) "inv pmos" 2.0 (Gate.pmos_width Gate.Stage_inv 1)

let aoi21_tree = Gate.Parallel [ Gate.Series [ Gate.Leaf 0; Gate.Leaf 1 ]; Gate.Leaf 2 ]

let test_network_tree_helpers () =
  Alcotest.(check int) "aoi21 pdn depth" 2 (Gate.tree_depth aoi21_tree);
  Alcotest.(check int) "aoi21 pun depth" 2 (Gate.tree_depth (Gate.dual aoi21_tree));
  Alcotest.(check bool) "conducts a&b" true
    (Gate.tree_conducts aoi21_tree [| true; true; false |]);
  Alcotest.(check bool) "conducts c" true
    (Gate.tree_conducts aoi21_tree [| false; false; true |]);
  Alcotest.(check bool) "blocks a alone" false
    (Gate.tree_conducts aoi21_tree [| true; false; false |]);
  (* duality: PUN conducts exactly when PDN does not, for every vector *)
  List.iter
    (fun v ->
      let ins = Array.map Leakage_circuit.Logic.to_bool v in
      let pun = Array.map not ins in
      Alcotest.(check bool) "complementary networks" true
        (Gate.tree_conducts aoi21_tree ins
         <> Gate.tree_conducts (Gate.dual aoi21_tree) pun))
    (Logic.all_vectors 3)

let test_complex_stage_sizing () =
  Alcotest.(check (float 0.0)) "aoi21 nmos" 2.0
    (Gate.nmos_width (Gate.Stage_complex aoi21_tree) 3);
  Alcotest.(check (float 0.0)) "aoi21 pmos" 4.0
    (Gate.pmos_width (Gate.Stage_complex aoi21_tree) 3)

(* -------------------------------------------------------------- Netlist *)

let small_circuit () =
  (* c = NAND2(a, b); d = INV(c) *)
  let b = Netlist.Builder.create "small" in
  let a = Netlist.Builder.input ~name:"a" b in
  let bb = Netlist.Builder.input ~name:"b" b in
  let c = Netlist.Builder.gate ~name:"c" b (Gate.Nand 2) [| a; bb |] in
  let d = Netlist.Builder.gate ~name:"d" b Gate.Inv [| c |] in
  Netlist.Builder.mark_output b d;
  (Netlist.Builder.finish b, a, bb, c, d)

let test_netlist_builder_basic () =
  let nl, a, _, c, d = small_circuit () in
  Alcotest.(check int) "gates" 2 (Netlist.gate_count nl);
  Alcotest.(check int) "nets" 4 (Netlist.net_count nl);
  Alcotest.(check bool) "a is input" true (Netlist.is_input nl a);
  Alcotest.(check bool) "d is output" true (Netlist.is_output nl d);
  Alcotest.(check bool) "c is internal" false
    (Netlist.is_input nl c || Netlist.is_output nl c);
  Alcotest.(check string) "named net" "c" (Netlist.net_name nl c)

let fanout_count nl n =
  let k = ref 0 in
  Netlist.iter_fanout nl n (fun _ -> incr k);
  !k

let test_netlist_driver_fanout () =
  let nl, a, _, c, d = small_circuit () in
  Alcotest.(check int) "driver of c" 0 (Netlist.driver_id nl c);
  Alcotest.(check int) "a undriven" (-1) (Netlist.driver_id nl a);
  Alcotest.(check int) "fanout of c" 1 (fanout_count nl c);
  Alcotest.(check int) "fanout of d" 0 (fanout_count nl d)

let test_netlist_fanout_counts_pins () =
  (* one gate using the same net twice contributes two fanout entries *)
  let b = Netlist.Builder.create "dup" in
  let a = Netlist.Builder.input b in
  let o = Netlist.Builder.gate b (Gate.Nand 2) [| a; a |] in
  Netlist.Builder.mark_output b o;
  let nl = Netlist.Builder.finish b in
  Alcotest.(check int) "two pins on a" 2 (fanout_count nl a)

let test_netlist_validate_ok () =
  let nl, _, _, _, _ = small_circuit () in
  Alcotest.(check bool) "valid" true (Netlist.validate nl = Ok ())

let test_netlist_builder_guards () =
  let b = Netlist.Builder.create "bad" in
  let a = Netlist.Builder.input b in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Builder.gate: NAND2 expects 2 inputs, got 1") (fun () ->
      ignore (Netlist.Builder.gate b (Gate.Nand 2) [| a |]));
  Alcotest.check_raises "unknown net"
    (Invalid_argument "Builder.gate: unknown net 99") (fun () ->
      ignore (Netlist.Builder.gate b Gate.Inv [| 99 |]))

let test_netlist_stats () =
  let nl, _, _, _, _ = small_circuit () in
  let s = Netlist.stats nl in
  Alcotest.(check int) "gates" 2 s.Netlist.n_gates;
  Alcotest.(check int) "levels" 2 s.Netlist.levels;
  Alcotest.(check int) "transistors" 6 s.Netlist.n_transistors;
  Alcotest.(check bool) "histogram has NAND2" true
    (List.mem_assoc "NAND2" s.Netlist.kind_histogram)

(* ---------------------------------------------------- topological order *)

let test_topo_order_respects_deps () =
  let nl, _, _, _, _ = small_circuit () in
  let order = Netlist.topo_ids nl in
  Alcotest.(check int) "nand first" 0 order.(0);
  Alcotest.(check int) "inv second" 1 order.(1)

let test_topo_levels () =
  let nl, _, _, _, _ = small_circuit () in
  Alcotest.(check bool) "levels" true (Netlist.levelize nl = Some [| 1; 2 |])

let prop_topo_is_topological =
  qtest ~count:50 "random ISCAS-profile circuits sort topologically"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let p = { Leakage_benchmarks.Iscas.profile_name = "tiny";
                n_pi = 4; n_po = 2; n_ff = 2; n_gates = 40 } in
      let nl = Leakage_benchmarks.Iscas.generate ~seed p in
      let position = Array.make (Netlist.gate_count nl) 0 in
      Array.iteri (fun pos g -> position.(g) <- pos) (Netlist.topo_ids nl);
      List.for_all
        (fun g ->
          List.for_all
            (fun p ->
              match Netlist.driver_id nl (Netlist.gate_pin nl g p) with
              | -1 -> true
              | d -> position.(d) < position.(g))
            (List.init (Netlist.gate_arity nl g) Fun.id))
        (List.init (Netlist.gate_count nl) Fun.id))

(* ------------------------------------------------------------- Simulate *)

let test_simulate_nand_inv () =
  let nl, _, _, c, d = small_circuit () in
  List.iter
    (fun (pat, expect_c, expect_d) ->
      let values = Simulate.run nl (Logic.vector_of_string pat) in
      Alcotest.(check char) ("c at " ^ pat) expect_c (Logic.to_char values.(c));
      Alcotest.(check char) ("d at " ^ pat) expect_d (Logic.to_char values.(d)))
    [ ("00", '1', '0'); ("01", '1', '0'); ("10", '1', '0'); ("11", '0', '1') ]

let test_simulate_outputs () =
  let nl, _, _, _, _ = small_circuit () in
  let out = Simulate.outputs nl (Simulate.run nl (Logic.vector_of_string "11")) in
  Alcotest.(check string) "PO vector" "1" (Logic.vector_to_string out)

let test_simulate_pattern_size_guard () =
  let nl, _, _, _, _ = small_circuit () in
  Alcotest.check_raises "bad width"
    (Invalid_argument "Simulate.run: 2 inputs expected, pattern has 3")
    (fun () -> ignore (Simulate.run nl (Logic.vector_of_string "000")))

let test_simulate_pin_values () =
  let nl, _, _, _, _ = small_circuit () in
  let values = Simulate.run nl (Logic.vector_of_string "10") in
  Alcotest.(check string) "pins of nand" "10"
    (Logic.vector_to_string
       (Array.init (Netlist.gate_arity nl 0) (fun p ->
            values.(Netlist.gate_pin nl 0 p))))

let test_simulate_random_patterns_shape () =
  let nl, _, _, _, _ = small_circuit () in
  let rng = Rng.create 7 in
  let pats = Simulate.random_patterns rng nl 5 in
  Alcotest.(check int) "count" 5 (List.length pats);
  List.iter
    (fun p -> Alcotest.(check int) "width" 2 (Array.length p))
    pats

(* --------------------------------------------------------- Bench format *)

let test_bench_parse_simple () =
  let text =
    "# comment\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
  in
  let nl = Bench_format.parse_string ~name:"t" text in
  Alcotest.(check int) "one gate" 1 (Netlist.gate_count nl);
  let values = Simulate.run nl (Logic.vector_of_string "11") in
  Alcotest.(check string) "nand(1,1) = 0" "0"
    (Logic.vector_to_string (Simulate.outputs nl values))

let test_bench_parse_out_of_order_definitions () =
  let text =
    "INPUT(a)\nOUTPUT(y)\ny = NOT(m)\nm = BUFF(a)\n"
  in
  let nl = Bench_format.parse_string ~name:"t" text in
  Alcotest.(check int) "two gates" 2 (Netlist.gate_count nl);
  let values = Simulate.run nl (Logic.vector_of_string "1") in
  Alcotest.(check string) "not(buf(1)) = 0" "0"
    (Logic.vector_to_string (Simulate.outputs nl values))

let test_bench_parse_dff_cut () =
  let text =
    "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = NAND(a, q)\ny = NOT(q)\n"
  in
  let nl = Bench_format.parse_string ~name:"t" text in
  (* q becomes a pseudo input, d a pseudo output *)
  Alcotest.(check int) "2 inputs (a, q)" 2 (Array.length (Netlist.inputs nl));
  Alcotest.(check int) "2 outputs (y, d)" 2 (Array.length (Netlist.outputs nl));
  Alcotest.(check bool) "valid" true (Netlist.validate nl = Ok ())

let test_bench_parse_wide_gate () =
  let args = String.concat ", " [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let text =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nOUTPUT(y)\n"
    ^ Printf.sprintf "y = NAND(%s)\n" args
  in
  let nl = Bench_format.parse_string ~name:"t" text in
  (* semantics check over all 64 vectors *)
  List.iter
    (fun v ->
      let expect = not (Array.for_all Logic.to_bool v) in
      let out = Simulate.outputs nl (Simulate.run nl v) in
      Alcotest.(check bool)
        ("nand6 " ^ Logic.vector_to_string v)
        expect
        (Logic.to_bool out.(0)))
    (Logic.all_vectors 6)

let test_bench_parse_xor_chain () =
  let text =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XOR(a, b, c)\n"
  in
  let nl = Bench_format.parse_string ~name:"t" text in
  List.iter
    (fun v ->
      let expect =
        List.fold_left ( <> ) false (List.map Logic.to_bool (Array.to_list v))
      in
      let out = Simulate.outputs nl (Simulate.run nl v) in
      Alcotest.(check bool) ("xor3 " ^ Logic.vector_to_string v) expect
        (Logic.to_bool out.(0)))
    (Logic.all_vectors 3)

let test_bench_parse_errors () =
  let expect_error text =
    match Bench_format.parse_string ~name:"t" text with
    | exception Bench_format.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_error "INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n";
  expect_error "INPUT(a)\nOUTPUT(y)\ny = NOT(zz)\n";
  expect_error "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n";
  expect_error "INPUT(a)\nOUTPUT(y)\nwhatisthis\n";
  (* combinational cycle *)
  expect_error "INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = NOT(y)\n"

let test_bench_rejects_conflicting_declarations () =
  let expect_error ~line ~substr text =
    match Bench_format.parse_string ~name:"t" text with
    | exception Bench_format.Parse_error (l, msg) ->
      Alcotest.(check int) ("line of: " ^ msg) line l;
      let contains s sub =
        let sl = String.length s and bl = String.length sub in
        let rec scan i =
          i + bl <= sl && (String.sub s i bl = sub || scan (i + 1))
        in
        scan 0
      in
      if not (contains msg substr) then
        Alcotest.failf "error %S does not name %S" msg substr
    | _ -> Alcotest.fail "expected Parse_error"
  in
  (* regression: all three used to Hashtbl.replace one declaration away
     silently instead of rejecting the netlist *)
  expect_error ~line:2 ~substr:"a"
    "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
  expect_error ~line:4 ~substr:"a"
    "INPUT(a)\nINPUT(b)\nOUTPUT(a)\na = NOT(b)\n";
  expect_error ~line:4 ~substr:"y"
    "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n"

let test_bench_dff_target_may_share_nothing () =
  (* a DFF output clashing with a declared input is still an error *)
  match
    Bench_format.parse_string ~name:"t"
      "INPUT(q)\nOUTPUT(y)\nq = DFF(y)\ny = NOT(q)\n"
  with
  | exception Bench_format.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_bench_roundtrip_complex_cells () =
  (* AOI/OAI cells are decomposed when written; the round trip preserves the
     logic function *)
  let b = Netlist.Builder.create "cplx" in
  let pins = Array.init 4 (fun i -> Netlist.Builder.input ~name:(Printf.sprintf "i%d" i) b) in
  let a = Netlist.Builder.gate b Gate.Aoi21 [| pins.(0); pins.(1); pins.(2) |] in
  let o = Netlist.Builder.gate b Gate.Oai22 [| a; pins.(1); pins.(2); pins.(3) |] in
  Netlist.Builder.mark_output b o;
  let nl = Netlist.Builder.finish b in
  let nl' = Bench_format.parse_string ~name:"rt" (Bench_format.to_string nl) in
  List.iter
    (fun v ->
      let x = Simulate.outputs nl (Simulate.run nl v) in
      let y = Simulate.outputs nl' (Simulate.run nl' v) in
      Alcotest.(check string)
        ("vector " ^ Logic.vector_to_string v)
        (Logic.vector_to_string x) (Logic.vector_to_string y))
    (Logic.all_vectors 4)

let test_bench_strength_roundtrip () =
  let b = Netlist.Builder.create "sz" in
  let a = Netlist.Builder.input ~name:"a" b in
  let c = Netlist.Builder.input ~name:"c" b in
  let n1 = Netlist.Builder.gate ~name:"n1" ~strength:2.0 b (Gate.Nand 2) [| a; c |] in
  let n2 = Netlist.Builder.gate ~name:"n2" ~strength:0.5 b Gate.Inv [| n1 |] in
  Netlist.Builder.mark_output b n2;
  let nl = Netlist.Builder.finish b in
  let text = Bench_format.to_string nl in
  let nl' = Bench_format.parse_string ~name:"sz" text in
  let strengths = Array.init (Netlist.gate_count nl') (Netlist.gate_strength nl') in
  Alcotest.(check bool) "strengths survive" true (strengths = [| 2.0; 0.5 |])

let test_bench_plain_files_default_strength () =
  let nl =
    Bench_format.parse_string ~name:"plain"
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)  # ordinary comment\n"
  in
  Alcotest.(check (float 0.0)) "default strength" 1.0
    (Netlist.gate_strength nl 0)

let test_bench_roundtrip_simulation () =
  let nl = Leakage_benchmarks.Alu8.build ~width:4 () in
  let text = Bench_format.to_string nl in
  let nl' = Bench_format.parse_string ~name:"alu44" text in
  Alcotest.(check int) "same gate count" (Netlist.gate_count nl)
    (Netlist.gate_count nl');
  let rng = Rng.create 3 in
  List.iter
    (fun pat ->
      let a = Simulate.outputs nl (Simulate.run nl pat) in
      let b = Simulate.outputs nl' (Simulate.run nl' pat) in
      Alcotest.(check string) "same outputs" (Logic.vector_to_string a)
        (Logic.vector_to_string b))
    (Simulate.random_patterns rng nl 25)

(* -------------------------------------------------------------- Verilog *)

let test_verilog_sanitize () =
  Alcotest.(check string) "plain" "abc_1" (Verilog.sanitize_identifier "abc_1");
  Alcotest.(check string) "punctuation" "a_b_c" (Verilog.sanitize_identifier "a.b/c");
  Alcotest.(check string) "leading digit" "n42" (Verilog.sanitize_identifier "42");
  Alcotest.(check string) "keyword" "wire_" (Verilog.sanitize_identifier "wire");
  Alcotest.(check string) "empty" "n" (Verilog.sanitize_identifier "")

let test_verilog_structure () =
  let nl, _, _, _, _ = small_circuit () in
  let text = Verilog.to_string nl in
  let contains needle =
    let nl_ = String.length needle and tl = String.length text in
    let rec go i = i + nl_ <= tl && (String.sub text i nl_ = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (contains "module small(");
  Alcotest.(check bool) "input a" true (contains "input a;");
  Alcotest.(check bool) "output d" true (contains "output d;");
  Alcotest.(check bool) "wire c" true (contains "wire c;");
  Alcotest.(check bool) "nand instance" true (contains "nand g1(c, a, b);");
  Alcotest.(check bool) "not instance" true (contains "not g2(d, c);");
  Alcotest.(check bool) "endmodule" true (contains "endmodule")

let test_verilog_complex_cells_decomposed () =
  let b = Netlist.Builder.create "vcplx" in
  let pins = Array.init 3 (fun i -> Netlist.Builder.input ~name:(Printf.sprintf "i%d" i) b) in
  let o = Netlist.Builder.gate ~name:"y" b Gate.Aoi21 pins in
  Netlist.Builder.mark_output b o;
  let nl = Netlist.Builder.finish b in
  let text = Verilog.to_string nl in
  let contains needle =
    let nl_ = String.length needle and tl = String.length text in
    let rec go i = i + nl_ <= tl && (String.sub text i nl_ = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "helper wire" true (contains "wire y_t0;");
  Alcotest.(check bool) "and part" true (contains "and g1(y_t0, i0, i1);");
  Alcotest.(check bool) "nor part" true (contains "nor g2(y, y_t0, i2);")

let test_verilog_unique_names_under_collision () =
  (* two nets whose names sanitize identically must not collide *)
  let b = Netlist.Builder.create "coll" in
  let x = Netlist.Builder.input ~name:"a.b" b in
  let y = Netlist.Builder.gate ~name:"a_b" b Gate.Inv [| x |] in
  Netlist.Builder.mark_output b y;
  let nl = Netlist.Builder.finish b in
  let text = Verilog.to_string nl in
  let count needle =
    let nl_ = String.length needle and tl = String.length text in
    let rec go i acc =
      if i + nl_ > tl then acc
      else go (i + 1) (if String.sub text i nl_ = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check bool) "second net renamed" true (count "a_b_2" >= 1)

(* --------------------------------------------------------------- digest *)

(* One structure, many constructions: the digest must depend only on the
   shape (PIs by name, gates by kind/strength/fan-in, output marking). *)

let digest_reference () =
  let b = Netlist.Builder.create "ref" in
  let a = Netlist.Builder.input ~name:"a" b in
  let bb = Netlist.Builder.input ~name:"b" b in
  let c = Netlist.Builder.input ~name:"c" b in
  let g1 = Netlist.Builder.gate ~name:"g1" b (Gate.Nand 2) [| a; bb |] in
  let g2 = Netlist.Builder.gate ~name:"g2" ~strength:2.0 b (Gate.Nor 2) [| bb; c |] in
  let g3 = Netlist.Builder.gate ~name:"g3" b Gate.Xor [| g1; g2 |] in
  Netlist.Builder.mark_output b g3;
  Netlist.Builder.finish b

let test_digest_shape () =
  let d = Netlist.digest (digest_reference ()) in
  Alcotest.(check int) "32 hex chars" 32 (String.length d);
  String.iter
    (fun ch ->
      Alcotest.(check bool) "hex digit" true
        (match ch with 'a' .. 'f' | '0' .. '9' -> true | _ -> false))
    d;
  Alcotest.(check string) "deterministic" d
    (Netlist.digest (digest_reference ()))

let test_digest_input_order_insensitive () =
  let b = Netlist.Builder.create "swapped-inputs" in
  (* same PI names declared in reverse order *)
  let c = Netlist.Builder.input ~name:"c" b in
  let bb = Netlist.Builder.input ~name:"b" b in
  let a = Netlist.Builder.input ~name:"a" b in
  let g1 = Netlist.Builder.gate ~name:"g1" b (Gate.Nand 2) [| a; bb |] in
  let g2 = Netlist.Builder.gate ~name:"g2" ~strength:2.0 b (Gate.Nor 2) [| bb; c |] in
  let g3 = Netlist.Builder.gate ~name:"g3" b Gate.Xor [| g1; g2 |] in
  Netlist.Builder.mark_output b g3;
  Alcotest.(check string) "digest ignores PI declaration order"
    (Netlist.digest (digest_reference ()))
    (Netlist.digest (Netlist.Builder.finish b))

let test_digest_gate_order_insensitive () =
  let b = Netlist.Builder.create "swapped-gates" in
  let a = Netlist.Builder.input ~name:"a" b in
  let bb = Netlist.Builder.input ~name:"b" b in
  let c = Netlist.Builder.input ~name:"c" b in
  (* the two independent first-level gates instantiated in the other order *)
  let g2 = Netlist.Builder.gate ~name:"g2" ~strength:2.0 b (Gate.Nor 2) [| bb; c |] in
  let g1 = Netlist.Builder.gate ~name:"g1" b (Gate.Nand 2) [| a; bb |] in
  let g3 = Netlist.Builder.gate ~name:"g3" b Gate.Xor [| g1; g2 |] in
  Netlist.Builder.mark_output b g3;
  Alcotest.(check string) "digest ignores gate construction order"
    (Netlist.digest (digest_reference ()))
    (Netlist.digest (Netlist.Builder.finish b))

let test_digest_name_insensitive () =
  let b = Netlist.Builder.create "other-netlist-name" in
  let a = Netlist.Builder.input ~name:"a" b in
  let bb = Netlist.Builder.input ~name:"b" b in
  let c = Netlist.Builder.input ~name:"c" b in
  (* internal nets renamed; PI names must stay, they label the interface *)
  let g1 = Netlist.Builder.gate ~name:"w9" b (Gate.Nand 2) [| a; bb |] in
  let g2 = Netlist.Builder.gate ~name:"w8" ~strength:2.0 b (Gate.Nor 2) [| bb; c |] in
  let g3 = Netlist.Builder.gate ~name:"w7" b Gate.Xor [| g1; g2 |] in
  Netlist.Builder.mark_output b g3;
  Alcotest.(check string) "digest ignores netlist and internal net names"
    (Netlist.digest (digest_reference ()))
    (Netlist.digest (Netlist.Builder.finish b))

let test_digest_bench_roundtrip () =
  let nl = digest_reference () in
  let nl' = Bench_format.parse_string ~name:"rt" (Bench_format.to_string nl) in
  Alcotest.(check string) "digest survives a .bench round trip"
    (Netlist.digest nl) (Netlist.digest nl');
  (* the suite's s838 holds complex cells that to_string decomposes, so the
     first serialization changes the structure — but after that, round trips
     must be digest-stable *)
  let s838 = (Leakage_benchmarks.Suite.find "s838").Leakage_benchmarks.Suite.build () in
  let once =
    Bench_format.parse_string ~name:"s838rt" (Bench_format.to_string s838)
  in
  let twice =
    Bench_format.parse_string ~name:"s838rt2" (Bench_format.to_string once)
  in
  Alcotest.(check string) "s838 digest stable once .bench-representable"
    (Netlist.digest once) (Netlist.digest twice)

let test_digest_sensitivity () =
  let build ?(kind = Gate.Nand 2) ?(strength = 1.0) ?(pins = false)
      ?(mark = true) () =
    let b = Netlist.Builder.create "sens" in
    let a = Netlist.Builder.input ~name:"a" b in
    let bb = Netlist.Builder.input ~name:"b" b in
    let ins = if pins then [| bb; a |] else [| a; bb |] in
    let g1 = Netlist.Builder.gate ~name:"g1" ~strength b kind ins in
    let g2 = Netlist.Builder.gate ~name:"g2" b Gate.Inv [| g1 |] in
    if mark then Netlist.Builder.mark_output b g2;
    Netlist.Builder.finish b
  in
  let base = Netlist.digest (build ()) in
  let differs label nl =
    Alcotest.(check bool) label true (Netlist.digest nl <> base)
  in
  differs "kind changes digest" (build ~kind:(Gate.Nor 2) ());
  differs "strength changes digest" (build ~strength:1.5 ());
  differs "pin order changes digest" (build ~pins:true ());
  differs "output marking changes digest" (build ~mark:false ())

(* The digest is a persisted format (LKN1 headers, LKC1 checkpoints,
   registry keys): these values must never change. *)
let test_digest_literals () =
  let module Suite = Leakage_benchmarks.Suite in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) name expected
        (Netlist.digest ((Suite.find name).Suite.build ())))
    [
      ("s838", "4937e8bb196a86fdcdb244423fa416e1");
      ("s1196", "02e5a627e329f1ee4aa4ca8a93581f1b");
      ("s1423", "c0ebaa4a3f2a724dc48252bfdafdb1de");
      ("s5378", "0f1a75c9c25fbda8760046b2b099820d");
      ("s9234", "a5576af314e1f120e17e97e110ccb657");
      ("s13207", "4aa27d632f8b1007277bdccb91680883");
      ("alu88", "bad4fff4721cd0d88f549997b699f56c");
      ("mult88", "58cd034c0f1f861e73f1cf965dfa8c28");
    ];
  Alcotest.(check string) "chain16k" "31b7697c49d5cd6792ead9c3c1fad4df"
    (Netlist.digest
       (Leakage_benchmarks.Trees.chain ~stages:16384 ~tap_every:64 ()))

let test_digest_rejects_cycle () =
  (* y = NOT(a), z = NOT(y), then rewire the first inverter to read z *)
  let b = Netlist.Builder.create "loop" in
  let a = Netlist.Builder.input ~name:"a" b in
  let y = Netlist.Builder.gate b Gate.Inv [| a |] in
  let z = Netlist.Builder.gate b Gate.Inv [| y |] in
  Netlist.Builder.mark_output b z;
  let raw = Netlist.Repr.to_raw (Netlist.Builder.finish b) in
  let pins = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 2 in
  Bigarray.Array1.blit raw.Netlist.Repr.r_pins pins;
  Bigarray.Array1.set pins 0 z;
  let cyclic =
    Netlist.Repr.of_raw ~validate:false { raw with Netlist.Repr.r_pins = pins }
  in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Netlist.digest: not a valid DAG") (fun () ->
      ignore (Netlist.digest cyclic))

let () =
  Alcotest.run "circuit"
    [
      ( "logic",
        [
          Alcotest.test_case "chars" `Quick test_logic_chars;
          Alcotest.test_case "vector strings" `Quick test_logic_vector_strings;
          Alcotest.test_case "vector of int" `Quick test_logic_vector_of_int;
          Alcotest.test_case "all vectors" `Quick test_logic_all_vectors;
          Alcotest.test_case "lnot" `Quick test_logic_lnot;
          prop_int_vector_roundtrip;
        ] );
      ( "gate",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_truth_tables;
          Alcotest.test_case "arity check" `Quick test_gate_arity_check;
          Alcotest.test_case "eval arity mismatch" `Quick test_gate_eval_arity_mismatch;
          Alcotest.test_case "name roundtrip" `Quick test_gate_names_roundtrip;
          Alcotest.test_case "of_name aliases" `Quick test_gate_of_name_aliases;
          Alcotest.test_case "decompose semantics" `Quick test_gate_decompose_semantics;
          Alcotest.test_case "single output stage" `Quick test_gate_decompose_single_output_stage;
          Alcotest.test_case "transistor counts" `Quick test_gate_transistor_counts;
          Alcotest.test_case "stack sizing" `Quick test_gate_stack_sizing;
          Alcotest.test_case "network trees" `Quick test_network_tree_helpers;
          Alcotest.test_case "complex sizing" `Quick test_complex_stage_sizing;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "builder basic" `Quick test_netlist_builder_basic;
          Alcotest.test_case "driver/fanout" `Quick test_netlist_driver_fanout;
          Alcotest.test_case "fanout counts pins" `Quick test_netlist_fanout_counts_pins;
          Alcotest.test_case "validate ok" `Quick test_netlist_validate_ok;
          Alcotest.test_case "builder guards" `Quick test_netlist_builder_guards;
          Alcotest.test_case "stats" `Quick test_netlist_stats;
        ] );
      ( "topo",
        [
          Alcotest.test_case "order" `Quick test_topo_order_respects_deps;
          Alcotest.test_case "levels" `Quick test_topo_levels;
          prop_topo_is_topological;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "nand+inv" `Quick test_simulate_nand_inv;
          Alcotest.test_case "outputs" `Quick test_simulate_outputs;
          Alcotest.test_case "size guard" `Quick test_simulate_pattern_size_guard;
          Alcotest.test_case "gate input vector" `Quick test_simulate_pin_values;
          Alcotest.test_case "random patterns" `Quick test_simulate_random_patterns_shape;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "sanitize" `Quick test_verilog_sanitize;
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "complex cells" `Quick test_verilog_complex_cells_decomposed;
          Alcotest.test_case "name collisions" `Quick test_verilog_unique_names_under_collision;
        ] );
      ( "digest",
        [
          Alcotest.test_case "shape" `Quick test_digest_shape;
          Alcotest.test_case "input order" `Quick test_digest_input_order_insensitive;
          Alcotest.test_case "gate order" `Quick test_digest_gate_order_insensitive;
          Alcotest.test_case "names" `Quick test_digest_name_insensitive;
          Alcotest.test_case "bench roundtrip" `Quick test_digest_bench_roundtrip;
          Alcotest.test_case "sensitivity" `Quick test_digest_sensitivity;
          Alcotest.test_case "literals" `Quick test_digest_literals;
          Alcotest.test_case "rejects a cycle" `Quick test_digest_rejects_cycle;
        ] );
      ( "bench-format",
        [
          Alcotest.test_case "parse simple" `Quick test_bench_parse_simple;
          Alcotest.test_case "out of order" `Quick test_bench_parse_out_of_order_definitions;
          Alcotest.test_case "dff cut" `Quick test_bench_parse_dff_cut;
          Alcotest.test_case "wide nand" `Quick test_bench_parse_wide_gate;
          Alcotest.test_case "xor chain" `Quick test_bench_parse_xor_chain;
          Alcotest.test_case "parse errors" `Quick test_bench_parse_errors;
          Alcotest.test_case "conflicting declarations" `Quick
            test_bench_rejects_conflicting_declarations;
          Alcotest.test_case "dff/input clash" `Quick
            test_bench_dff_target_may_share_nothing;
          Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip_simulation;
          Alcotest.test_case "complex-cell roundtrip" `Quick test_bench_roundtrip_complex_cells;
          Alcotest.test_case "strength roundtrip" `Quick test_bench_strength_roundtrip;
          Alcotest.test_case "plain default strength" `Quick test_bench_plain_files_default_strength;
        ] );
    ]
