(* Tests of the benchmark circuits: functional equivalence of the structural
   ALU and multiplier against software references, and profile conformance of
   the synthetic ISCAS generator. *)

module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Simulate = Leakage_circuit.Simulate
module Adders = Leakage_benchmarks.Adders
module Alu8 = Leakage_benchmarks.Alu8
module Mult8 = Leakage_benchmarks.Mult8
module Iscas = Leakage_benchmarks.Iscas
module Suite = Leakage_benchmarks.Suite
module Rng = Leakage_numeric.Rng

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* little-endian helper: bit i of [n] *)
let bits ~width n = Array.init width (fun i -> Logic.of_bool (n lsr i land 1 = 1))

let int_of_bits v =
  let acc = ref 0 in
  Array.iteri (fun i b -> if Logic.to_bool b then acc := !acc lor (1 lsl i)) v;
  !acc

(* --------------------------------------------------------------- Adders *)

let run_cell build n_inputs pattern =
  let b = Netlist.Builder.create "cell" in
  let ins = Array.init n_inputs (fun _ -> Netlist.Builder.input b) in
  let outs = build b ins in
  List.iter (fun o -> Netlist.Builder.mark_output b o) outs;
  let nl = Netlist.Builder.finish b in
  Simulate.outputs nl (Simulate.run nl pattern)

let test_half_adder () =
  for a = 0 to 1 do
    for bb = 0 to 1 do
      let out =
        run_cell
          (fun b ins ->
            let s, c = Adders.half_adder b ins.(0) ins.(1) in
            [ s; c ])
          2
          [| Logic.of_bool (a = 1); Logic.of_bool (bb = 1) |]
      in
      Alcotest.(check int) (Printf.sprintf "ha %d+%d" a bb) (a + bb)
        (int_of_bits out)
    done
  done

let test_full_adder () =
  for n = 0 to 7 do
    let a = n land 1 and bb = (n lsr 1) land 1 and c = (n lsr 2) land 1 in
    let out =
      run_cell
        (fun b ins ->
          let s, co = Adders.full_adder b ins.(0) ins.(1) ins.(2) in
          [ s; co ])
        3
        [| Logic.of_bool (a = 1); Logic.of_bool (bb = 1); Logic.of_bool (c = 1) |]
    in
    Alcotest.(check int) (Printf.sprintf "fa %d" n) (a + bb + c) (int_of_bits out)
  done

let test_ripple_adder () =
  let width = 4 in
  for a = 0 to 15 do
    for bb = 0 to 15 do
      let out =
        run_cell
          (fun b ins ->
            let xs = Array.sub ins 0 width and ys = Array.sub ins width width in
            let sums, carry = Adders.ripple_adder b xs ys ins.(2 * width) in
            Array.to_list sums @ [ carry ])
          (2 * width + 1)
          (Array.concat [ bits ~width a; bits ~width bb; [| Logic.Zero |] ])
      in
      Alcotest.(check int) (Printf.sprintf "%d+%d" a bb) (a + bb) (int_of_bits out)
    done
  done

let test_mux2 () =
  List.iter
    (fun (sel, a, bb, expect) ->
      let out =
        run_cell
          (fun b ins -> [ Adders.mux2 b ~sel:ins.(0) ins.(1) ins.(2) ])
          3
          [| Logic.of_bool sel; Logic.of_bool a; Logic.of_bool bb |]
      in
      Alcotest.(check bool) "mux" expect (Logic.to_bool out.(0)))
    [ (false, true, false, true); (false, false, true, false);
      (true, true, false, false); (true, false, true, true) ]

(* ------------------------------------------------------------------ ALU *)

let alu_pattern ~width ~a ~b ~op ~cin =
  Array.concat
    [ bits ~width a; bits ~width b;
      [| Logic.of_bool (op land 1 = 1); Logic.of_bool (op lsr 1 land 1 = 1);
         Logic.of_bool cin |] ]

let test_alu4_exhaustive () =
  let width = 4 in
  let nl = Alu8.build ~width () in
  for op = 0 to 3 do
    for a = 0 to 15 do
      for b = 0 to 15 do
        let pattern = alu_pattern ~width ~a ~b ~op ~cin:false in
        let out = Simulate.outputs nl (Simulate.run nl pattern) in
        let expect_r, expect_c = Alu8.reference ~width ~a ~b ~op ~cin:false in
        let got = int_of_bits out in
        let expect = expect_r lor (if expect_c then 1 lsl width else 0) in
        if got <> expect then
          Alcotest.failf "alu4 op=%d a=%d b=%d: got %d want %d" op a b got expect
      done
    done
  done

let test_alu8_carry_in () =
  let width = 8 in
  let nl = Alu8.build ~width () in
  List.iter
    (fun (a, b) ->
      let pattern = alu_pattern ~width ~a ~b ~op:3 ~cin:true in
      let out = Simulate.outputs nl (Simulate.run nl pattern) in
      let expect_r, expect_c = Alu8.reference ~width ~a ~b ~op:3 ~cin:true in
      Alcotest.(check int) "sum+cin"
        (expect_r lor (if expect_c then 1 lsl width else 0))
        (int_of_bits out))
    [ (0, 0); (255, 255); (170, 85); (200, 100) ]

let prop_alu8_random =
  qtest "alu8 agrees with the reference on random operands"
    QCheck2.Gen.(tup3 (int_bound 255) (int_bound 255) (int_bound 7))
    (fun (a, b, opc) ->
      let op = opc land 3 and cin = opc lsr 2 = 1 in
      let nl = Alu8.build () in
      let out = Simulate.outputs nl (Simulate.run nl (alu_pattern ~width:8 ~a ~b ~op ~cin)) in
      let expect_r, expect_c = Alu8.reference ~width:8 ~a ~b ~op ~cin in
      int_of_bits out = (expect_r lor (if expect_c then 1 lsl 8 else 0)))

let test_alu_reference_guard () =
  Alcotest.check_raises "op range"
    (Invalid_argument "Alu8.reference: op outside 0-3") (fun () ->
      ignore (Alu8.reference ~width:8 ~a:0 ~b:0 ~op:4 ~cin:false))

(* ----------------------------------------------------------- Multiplier *)

let test_mult3_exhaustive () =
  let width = 3 in
  let nl = Mult8.build ~width () in
  for a = 0 to 7 do
    for b = 0 to 7 do
      let pattern = Array.append (bits ~width a) (bits ~width b) in
      let out = Simulate.outputs nl (Simulate.run nl pattern) in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) (int_of_bits out)
    done
  done

let test_mult4_exhaustive () =
  let width = 4 in
  let nl = Mult8.build ~width () in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let pattern = Array.append (bits ~width a) (bits ~width b) in
      let out = Simulate.outputs nl (Simulate.run nl pattern) in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) (int_of_bits out)
    done
  done

let prop_mult8_random =
  qtest "mult8 agrees with integer multiplication"
    QCheck2.Gen.(tup2 (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let nl = Mult8.build () in
      let pattern = Array.append (bits ~width:8 a) (bits ~width:8 b) in
      let out = Simulate.outputs nl (Simulate.run nl pattern) in
      int_of_bits out = a * b)

let test_mult_output_width () =
  let nl = Mult8.build ~width:8 () in
  Alcotest.(check int) "16 product bits" 16 (Array.length (Netlist.outputs nl))

let test_mult_width_guard () =
  Alcotest.check_raises "width 1"
    (Invalid_argument "Mult8.build: width must be at least 2") (fun () ->
      ignore (Mult8.build ~width:1 ()))

(* ---------------------------------------------------------------- Iscas *)

let test_iscas_profiles_table () =
  Alcotest.(check int) "six profiles" 6 (List.length Iscas.profiles);
  let p = Iscas.profile "s838" in
  Alcotest.(check int) "s838 PIs" 34 p.Iscas.n_pi;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Iscas.profile "s9999"))

let test_iscas_generation_matches_profile () =
  List.iter
    (fun (p : Iscas.profile) ->
      if p.Iscas.n_gates <= 1000 then begin
        let nl = Iscas.generate p in
        Alcotest.(check int)
          (p.Iscas.profile_name ^ " gates")
          p.Iscas.n_gates (Netlist.gate_count nl);
        Alcotest.(check int)
          (p.Iscas.profile_name ^ " inputs")
          (p.Iscas.n_pi + p.Iscas.n_ff)
          (Array.length (Netlist.inputs nl));
        Alcotest.(check bool)
          (p.Iscas.profile_name ^ " valid")
          true
          (Netlist.validate nl = Ok ())
      end)
    Iscas.profiles

let test_iscas_deterministic () =
  let a = Iscas.generate_by_name "s838" in
  let b = Iscas.generate_by_name "s838" in
  let rng = Rng.create 5 in
  List.iter
    (fun pattern ->
      let oa = Simulate.outputs a (Simulate.run a pattern) in
      let ob = Simulate.outputs b (Simulate.run b pattern) in
      Alcotest.(check string) "same function" (Logic.vector_to_string oa)
        (Logic.vector_to_string ob))
    (Simulate.random_patterns rng a 5)

let test_iscas_seed_changes_structure () =
  let p = Iscas.profile "s838" in
  let a = Iscas.generate ~seed:1 p in
  let b = Iscas.generate ~seed:2 p in
  let sig_of nl =
    List.init (Netlist.gate_count nl) (fun g ->
        Leakage_circuit.Gate.name (Netlist.gate_kind nl g))
  in
  Alcotest.(check bool) "different seeds differ" false (sig_of a = sig_of b)

let test_iscas_has_depth () =
  let nl = Iscas.generate_by_name "s1196" in
  let s = Netlist.stats nl in
  Alcotest.(check bool) "at least 5 logic levels" true (s.Netlist.levels >= 5);
  Alcotest.(check bool) "has multi-fanout nets" true (s.Netlist.max_fanout >= 3)

let prop_iscas_random_profiles_valid =
  qtest ~count:25 "generator output always validates"
    QCheck2.Gen.(tup2 (int_bound 9999) (int_range 10 120))
    (fun (seed, n_gates) ->
      let p = { Iscas.profile_name = "rand"; n_pi = 6; n_po = 3; n_ff = 4;
                n_gates } in
      let nl = Iscas.generate ~seed p in
      Netlist.validate nl = Ok () && Array.length (Netlist.topo_ids nl) = n_gates)

(* ---------------------------------------------------------------- Trees *)

module Trees = Leakage_benchmarks.Trees

let test_parity_exhaustive () =
  let width = 6 in
  let nl = Trees.parity ~width () in
  for n = 0 to (1 lsl width) - 1 do
    let pattern = bits ~width n in
    let out = Simulate.outputs nl (Simulate.run nl pattern) in
    let expect = Trees.parity_reference (Array.map Logic.to_bool pattern) in
    Alcotest.(check bool) (Printf.sprintf "parity %d" n) expect
      (Logic.to_bool out.(0))
  done

let test_parity_structure () =
  let nl = Trees.parity ~width:16 () in
  Alcotest.(check int) "15 xor gates" 15 (Netlist.gate_count nl);
  let s = Netlist.stats nl in
  Alcotest.(check int) "log depth" 4 s.Netlist.levels

let test_decoder_exhaustive () =
  let select_bits = 4 in
  let nl = Trees.decoder ~select_bits () in
  Alcotest.(check int) "16 outputs" 16 (Array.length (Netlist.outputs nl));
  for code = 0 to 15 do
    let pattern = bits ~width:select_bits code in
    let out = Simulate.outputs nl (Simulate.run nl pattern) in
    Array.iteri
      (fun i v ->
        Alcotest.(check bool)
          (Printf.sprintf "code %d output %d" code i)
          (i = Trees.decoder_reference ~select_bits code)
          (Logic.to_bool v))
      out
  done

let test_decoder_fanout_heavy () =
  let nl = Trees.decoder ~select_bits:4 () in
  let s = Netlist.stats nl in
  Alcotest.(check bool) "select literals fan out widely" true
    (s.Netlist.max_fanout >= 8)

let test_mux_tree_exhaustive () =
  let select_bits = 2 in
  let nl = Trees.mux_tree ~select_bits () in
  let n_data = 1 lsl select_bits in
  for data = 0 to (1 lsl n_data) - 1 do
    for select = 0 to n_data - 1 do
      let pattern =
        Array.append (bits ~width:n_data data) (bits ~width:select_bits select)
      in
      let out = Simulate.outputs nl (Simulate.run nl pattern) in
      Alcotest.(check bool)
        (Printf.sprintf "data %d select %d" data select)
        (Trees.mux_reference ~select_bits ~data ~select)
        (Logic.to_bool out.(0))
    done
  done

let test_tree_guards () =
  Alcotest.check_raises "parity width"
    (Invalid_argument "Trees.parity: width must be at least 2") (fun () ->
      ignore (Trees.parity ~width:1 ()));
  Alcotest.check_raises "decoder bits"
    (Invalid_argument "Trees.decoder: select_bits outside [2,6]") (fun () ->
      ignore (Trees.decoder ~select_bits:9 ()))

let test_c_profiles () =
  Alcotest.(check int) "nine profiles" 9 (List.length Iscas.c_profiles);
  let p = Iscas.profile "c432" in
  Alcotest.(check int) "combinational" 0 p.Iscas.n_ff;
  let nl = Iscas.generate p in
  Alcotest.(check int) "gates" 160 (Netlist.gate_count nl);
  Alcotest.(check bool) "valid" true (Netlist.validate nl = Ok ())

(* ---------------------------------------------------------------- Suite *)

let test_suite_names () =
  Alcotest.(check (list string)) "paper order"
    [ "s838"; "s1196"; "s1423"; "s5378"; "s9234"; "s13207"; "alu88"; "mult88" ]
    Suite.names

let test_suite_find () =
  let e = Suite.find "alu88" in
  let nl = e.Suite.build () in
  Alcotest.(check bool) "alu has gates" true (Netlist.gate_count nl > 100);
  Alcotest.check_raises "unknown"
    (Failure
       "unknown circuit nope (known: s838, s1196, s1423, s5378, s9234, \
        s13207, alu88, mult88)")
    (fun () -> ignore (Suite.find "nope"))

let test_suite_small_members_build () =
  List.iter
    (fun label ->
      let e = Suite.find label in
      let nl = e.Suite.build () in
      Alcotest.(check bool) (label ^ " validates") true
        (Netlist.validate nl = Ok ()))
    [ "s838"; "s1196"; "s1423"; "alu88"; "mult88" ]

let () =
  Alcotest.run "benchmarks"
    [
      ( "adders",
        [
          Alcotest.test_case "half adder" `Quick test_half_adder;
          Alcotest.test_case "full adder" `Quick test_full_adder;
          Alcotest.test_case "ripple adder" `Quick test_ripple_adder;
          Alcotest.test_case "mux2" `Quick test_mux2;
        ] );
      ( "alu",
        [
          Alcotest.test_case "alu4 exhaustive" `Slow test_alu4_exhaustive;
          Alcotest.test_case "alu8 carry in" `Quick test_alu8_carry_in;
          prop_alu8_random;
          Alcotest.test_case "reference guard" `Quick test_alu_reference_guard;
        ] );
      ( "multiplier",
        [
          Alcotest.test_case "mult3 exhaustive" `Quick test_mult3_exhaustive;
          Alcotest.test_case "mult4 exhaustive" `Slow test_mult4_exhaustive;
          prop_mult8_random;
          Alcotest.test_case "output width" `Quick test_mult_output_width;
          Alcotest.test_case "width guard" `Quick test_mult_width_guard;
        ] );
      ( "iscas",
        [
          Alcotest.test_case "profiles" `Quick test_iscas_profiles_table;
          Alcotest.test_case "profile conformance" `Quick test_iscas_generation_matches_profile;
          Alcotest.test_case "deterministic" `Quick test_iscas_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_iscas_seed_changes_structure;
          Alcotest.test_case "depth" `Quick test_iscas_has_depth;
          prop_iscas_random_profiles_valid;
        ] );
      ( "trees",
        [
          Alcotest.test_case "parity exhaustive" `Quick test_parity_exhaustive;
          Alcotest.test_case "parity structure" `Quick test_parity_structure;
          Alcotest.test_case "decoder exhaustive" `Quick test_decoder_exhaustive;
          Alcotest.test_case "decoder fanout" `Quick test_decoder_fanout_heavy;
          Alcotest.test_case "mux exhaustive" `Quick test_mux_tree_exhaustive;
          Alcotest.test_case "guards" `Quick test_tree_guards;
          Alcotest.test_case "iscas85 profiles" `Quick test_c_profiles;
        ] );
      ( "suite",
        [
          Alcotest.test_case "names" `Quick test_suite_names;
          Alcotest.test_case "find" `Quick test_suite_find;
          Alcotest.test_case "members build" `Quick test_suite_small_members_build;
        ] );
    ]
