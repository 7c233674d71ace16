(* Golden regression corpus: expected per-circuit totals for the paper's
   benchmark suite, checked in as test/golden_suite.json and diffed against
   a live [Suite.estimate_all] run with per-component tolerances.

   The fixture pins the whole observable estimate — subthreshold, gate and
   BTBT components of both the loading-aware and the baseline totals plus
   the loading shift — so any change to device models, characterization,
   table interpolation or the estimator sum order shows up as a diff here
   even when the relative shift happens to stay put. The per-circuit
   sigma_* fields additionally pin the analytic variance propagation
   (loading-aware σ per component plus the inter/intra split of the total,
   under the paper's sigmas and each circuit's first sampled vector), so
   moment-engine changes are caught with the same resolution as the means.

   Regenerate (after an intentional model change) with:
     LEAKAGE_GOLDEN_WRITE=test/golden_suite.json dune exec test/test_golden.exe

   The regen path is itself under test: the byte-identity case below
   re-emits the fixture from the live run and diffs it against the checked
   in file, so a stale corpus or a silent format drift (fields dropped or
   reordered — the schema is append-only) fails before anyone needs the
   env var. *)

module Params = Leakage_device.Params
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Report = Leakage_spice.Leakage_report
module Sensitivity = Leakage_core.Sensitivity
module Variation = Leakage_device.Variation
module Netlist = Leakage_circuit.Netlist
module Logic = Leakage_circuit.Logic
module Rng = Leakage_numeric.Rng
module Suite = Leakage_benchmarks.Suite
module Trees = Leakage_benchmarks.Trees
module Json = Leakage_telemetry.Json

let device = Params.d25
let temp = 300.0
let coarse_grid = { Characterize.max_current = 3.0e-6; points = 5 }
let lib = Library.create ~grid:coarse_grid ~device ~temp ()
let vectors = 2
let seed = 7
let fixture = "golden_suite.json"

(* the paper's suite plus a 16k-deep tapped chain: the depth stress case —
   a recursive cone walk would blow the stack here, and the gateway taps
   make it the canonical value-aware-pruning topology. Appended after
   [Suite.all] so the earlier circuits keep their exact RNG streams (the
   per-entry splits are drawn in order). *)
let entries =
  Suite.all
  @ [ { Suite.label = "chain16k";
        build = (fun () -> Trees.chain ~stages:16384 ~tap_every:64 ()) } ]

(* components can legitimately sit many orders of magnitude apart, so each
   is compared relatively; an exactly-zero golden value demands (near) zero *)
let tol = 1e-6

let rel a b = if b = 0.0 then Float.abs a else Float.abs (a -. b) /. Float.abs b

let runs = lazy (Suite.estimate_all ~entries ~vectors ~seed lib)

(* Analytic σ under each circuit's FIRST sampled vector: the stream split
   below mirrors [Suite.estimate_all] exactly (one split per entry, in
   suite order), so the vector pinned here is the first of the [vectors]
   the mean fixture averaged over. *)
let sigmas = Variation.paper_sigmas

let sigma_runs =
  lazy
    (let entries_a = Array.of_list entries in
     let rng = Rng.create seed in
     let streams = Array.map (fun _ -> Rng.split rng) entries_a in
     Array.mapi
       (fun i (e : Suite.entry) ->
         let netlist = e.Suite.build () in
         let width = Array.length (Netlist.inputs netlist) in
         let v = Logic.random_vector streams.(i) width in
         let _, _, res =
           Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib netlist v
         in
         res)
       entries_a)

(* ------------------------------------------------------------- JSON emit *)

let emit oc (rows : Suite.run array) (sigs : Sensitivity.result array) =
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"fixture\": \"golden-suite\",\n";
  p "  \"vectors\": %d,\n" vectors;
  p "  \"seed\": %d,\n" seed;
  p "  \"grid_points\": %d,\n" coarse_grid.Characterize.points;
  p "  \"grid_max_current\": %.17g,\n" coarse_grid.Characterize.max_current;
  p "  \"circuits\": [\n";
  let n = Array.length rows in
  Array.iteri
    (fun i (r : Suite.run) ->
      let st = sigs.(i).Sensitivity.loaded in
      p "    {\n";
      p "      \"label\": \"%s\",\n" r.Suite.label;
      p "      \"gates\": %d,\n" r.Suite.gates;
      p "      \"loaded_isub\": %.17g,\n" r.Suite.loaded.Report.isub;
      p "      \"loaded_igate\": %.17g,\n" r.Suite.loaded.Report.igate;
      p "      \"loaded_ibtbt\": %.17g,\n" r.Suite.loaded.Report.ibtbt;
      p "      \"base_isub\": %.17g,\n" r.Suite.baseline.Report.isub;
      p "      \"base_igate\": %.17g,\n" r.Suite.baseline.Report.igate;
      p "      \"base_ibtbt\": %.17g,\n" r.Suite.baseline.Report.ibtbt;
      p "      \"shift_percent\": %.17g,\n" r.Suite.shift_percent;
      p "      \"sigma_isub\": %.17g,\n" st.Sensitivity.s_isub.Sensitivity.sigma;
      p "      \"sigma_igate\": %.17g,\n" st.Sensitivity.s_igate.Sensitivity.sigma;
      p "      \"sigma_ibtbt\": %.17g,\n" st.Sensitivity.s_ibtbt.Sensitivity.sigma;
      p "      \"sigma_total\": %.17g,\n" st.Sensitivity.s_total.Sensitivity.sigma;
      p "      \"sigma_total_inter\": %.17g,\n"
        st.Sensitivity.s_total.Sensitivity.sigma_inter;
      p "      \"sigma_total_intra\": %.17g\n"
        st.Sensitivity.s_total.Sensitivity.sigma_intra;
      p "    }%s\n" (if i = n - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n"

(* ----------------------------------------------------------------- tests *)

let read_fixture () = In_channel.with_open_bin fixture In_channel.input_all
let fixture_rows () = Json.arr "circuits" (Json.read_file fixture)

let check_close label what golden actual =
  if rel actual golden > tol then
    Alcotest.failf "%s: %s drifted from golden: %.17g vs %.17g (rel %.3e)"
      label what golden actual golden

let test_fixture_settings () =
  let s = Json.read_file fixture in
  Alcotest.(check string) "fixture kind" "golden-suite" (Json.str "fixture" s);
  Alcotest.(check int) "vectors" vectors (Json.int "vectors" s);
  Alcotest.(check int) "seed" seed (Json.int "seed" s);
  Alcotest.(check int) "grid points" coarse_grid.Characterize.points
    (Json.int "grid_points" s);
  Alcotest.(check (float 0.0)) "grid max current"
    coarse_grid.Characterize.max_current
    (Json.num "grid_max_current" s)

let test_suite_matches_golden () =
  let chunks = fixture_rows () in
  let rows = Lazy.force runs in
  Alcotest.(check int) "circuit count" (List.length entries)
    (List.length chunks);
  Alcotest.(check int) "one run per fixture entry" (List.length chunks)
    (Array.length rows);
  List.iteri
    (fun i chunk ->
      let r = rows.(i) in
      let label = Json.str "label" chunk in
      Alcotest.(check string) "label order" label r.Suite.label;
      Alcotest.(check int) (label ^ " gate count")
        (Json.int "gates" chunk) r.Suite.gates;
      check_close label "loaded isub" (Json.num "loaded_isub" chunk)
        r.Suite.loaded.Report.isub;
      check_close label "loaded igate" (Json.num "loaded_igate" chunk)
        r.Suite.loaded.Report.igate;
      check_close label "loaded ibtbt" (Json.num "loaded_ibtbt" chunk)
        r.Suite.loaded.Report.ibtbt;
      check_close label "baseline isub" (Json.num "base_isub" chunk)
        r.Suite.baseline.Report.isub;
      check_close label "baseline igate" (Json.num "base_igate" chunk)
        r.Suite.baseline.Report.igate;
      check_close label "baseline ibtbt" (Json.num "base_ibtbt" chunk)
        r.Suite.baseline.Report.ibtbt;
      check_close label "shift percent" (Json.num "shift_percent" chunk)
        r.Suite.shift_percent)
    chunks

let test_sigmas_match_golden () =
  let chunks = fixture_rows () in
  let sigs = Lazy.force sigma_runs in
  Alcotest.(check int) "one sigma result per fixture entry"
    (List.length chunks) (Array.length sigs);
  List.iteri
    (fun i chunk ->
      let st = sigs.(i).Sensitivity.loaded in
      let label = Json.str "label" chunk in
      check_close label "sigma isub" (Json.num "sigma_isub" chunk)
        st.Sensitivity.s_isub.Sensitivity.sigma;
      check_close label "sigma igate" (Json.num "sigma_igate" chunk)
        st.Sensitivity.s_igate.Sensitivity.sigma;
      check_close label "sigma ibtbt" (Json.num "sigma_ibtbt" chunk)
        st.Sensitivity.s_ibtbt.Sensitivity.sigma;
      check_close label "sigma total" (Json.num "sigma_total" chunk)
        st.Sensitivity.s_total.Sensitivity.sigma;
      check_close label "sigma total inter" (Json.num "sigma_total_inter" chunk)
        st.Sensitivity.s_total.Sensitivity.sigma_inter;
      check_close label "sigma total intra" (Json.num "sigma_total_intra" chunk)
        st.Sensitivity.s_total.Sensitivity.sigma_intra)
    chunks

(* The LEAKAGE_GOLDEN_WRITE path, exercised without the env var: re-emit
   the fixture from the live run and demand byte-identity with the checked
   in file. Catches a stale corpus, a format drift, and any violation of
   the append-only schema in one comparison. *)
let test_regen_is_byte_identical () =
  let tmp = "golden_regen_tmp.json" in
  let oc = open_out tmp in
  emit oc (Lazy.force runs) (Lazy.force sigma_runs);
  close_out oc;
  let ic = open_in tmp in
  let fresh = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  Alcotest.(check string) "regenerated fixture" (read_fixture ()) fresh

let () =
  match Sys.getenv_opt "LEAKAGE_GOLDEN_WRITE" with
  | Some path ->
    let oc = open_out path in
    emit oc (Lazy.force runs) (Lazy.force sigma_runs);
    close_out oc;
    Printf.printf "wrote %s (%d circuits)\n" path (Array.length (Lazy.force runs))
  | None ->
    Alcotest.run "golden"
      [
        ( "suite",
          [
            Alcotest.test_case "fixture settings" `Quick test_fixture_settings;
            Alcotest.test_case "totals match golden corpus" `Quick
              test_suite_matches_golden;
            Alcotest.test_case "sigmas match golden corpus" `Quick
              test_sigmas_match_golden;
            Alcotest.test_case "regen path is byte-identical" `Quick
              test_regen_is_byte_identical;
          ] );
      ]
