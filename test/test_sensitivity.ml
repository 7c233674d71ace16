(* MC-differential validation of the analytic variance propagation.

   The closed form must agree with the sampler it replaces: on every test
   circuit the analytic mean and σ of each component sit within 3 standard
   errors of a 10k-sample Monte-Carlo run, the inner table primitive
   matches a brute-force quadrature oracle, the table λ matches finite
   differences (through the same [Diff_harness.Fd] oracle the device jets
   use), and the estimator-facing entry points honor their determinism
   contracts: bit-identical across pool sizes, across construction order
   of digest-equal netlists, and between a refreshed incremental session
   and a fresh pass. The last group counts the analytic pass's work on
   fresh and warm libraries and gates what it and the sampler allocate. *)

module Params = Leakage_device.Params
module Variation = Leakage_device.Variation
module Gate = Leakage_circuit.Gate
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Sensitivity = Leakage_core.Sensitivity
module Vth_moments = Leakage_core.Vth_moments
module Statistical = Leakage_core.Statistical
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Rng = Leakage_numeric.Rng
module Stats = Leakage_numeric.Stats
module Interp = Leakage_numeric.Interp
module Fd = Diff_harness.Fd
module Pool = Leakage_parallel.Pool
module Trees = Leakage_benchmarks.Trees
module Suite = Leakage_benchmarks.Suite
module Estimator = Leakage_core.Estimator
module Tm = Leakage_telemetry.Telemetry

let device = Params.d25
let temp = 300.0

(* same coarse grid as diff_harness, so the characterization cache stays
   warm across the test executable *)
let fresh_lib () =
  Library.create
    ~grid:{ Characterize.max_current = 3.0e-6; points = 5 }
    ~device ~temp ()

let lib = fresh_lib ()

let sigmas = Variation.paper_sigmas

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------- circuits *)

let inv_chain n =
  let b = Netlist.Builder.create "chain" in
  let net = ref (Netlist.Builder.input b) in
  for _ = 1 to n do
    net := Netlist.Builder.gate b Gate.Inv [| !net |]
  done;
  Netlist.Builder.mark_output b !net;
  Netlist.Builder.finish b

let nand_tree depth =
  let b = Netlist.Builder.create "tree" in
  let rec level nets =
    match nets with
    | [ last ] ->
      Netlist.Builder.mark_output b last;
      Netlist.Builder.finish b
    | _ ->
      let rec pair = function
        | x :: y :: rest ->
          Netlist.Builder.gate b (Gate.Nand 2) [| x; y |] :: pair rest
        | [ x ] -> [ Netlist.Builder.gate b Gate.Inv [| x |] ]
        | [] -> []
      in
      level (pair nets)
  in
  level (List.init (1 lsl depth) (fun _ -> Netlist.Builder.input b))

let random_pattern seed nl =
  Logic.random_vector (Rng.create seed) (Array.length (Netlist.inputs nl))

let analytic ?(lib = lib) ?(sigmas = sigmas) nl pattern =
  let _, _, res =
    Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib nl pattern
  in
  res

(* ------------------------------------------------- MC-differential core *)

let central_moment4 values mean =
  let acc = ref 0.0 in
  Array.iter
    (fun v ->
      let d = v -. mean in
      acc := !acc +. (d *. d *. d *. d))
    values;
  !acc /. float_of_int (Array.length values)

(* Analytic mean and σ of all four components, loaded and baseline, must
   land within [bound] standard errors of an [samples]-draw Monte-Carlo.
   SE(mean) = s/√n; SE(σ) = √(m₄ − s⁴)/(2 s √n) (asymptotic, kurtosis
   corrected — these totals are heavy-tailed, the Gaussian σ²/2n formula
   would overstate the precision). *)
let check_against_mc ~name ~samples ~seed ~bound nl pattern =
  let res = analytic nl pattern in
  let mc = Statistical.run ~n_samples:samples ~seed ~sigmas lib nl pattern in
  List.iter
    (fun (side, base) ->
      let st =
        if base then res.Sensitivity.baseline else res.Sensitivity.loaded
      in
      List.iter
        (fun (comp, pick, (cs : Sensitivity.component_stat)) ->
          let v =
            Array.map
              (fun (s : Statistical.sample_totals) ->
                pick
                  (if base then s.Statistical.no_loading
                   else s.Statistical.with_loading))
              mc.Statistical.samples
          in
          let n = float_of_int (Array.length v) in
          let m = Stats.mean v and s = Stats.std v in
          let se_mean = s /. sqrt n in
          let m4 = central_moment4 v m in
          let se_sigma =
            sqrt (Float.max 0.0 (m4 -. (s *. s *. s *. s)))
            /. (2.0 *. s *. sqrt n)
          in
          let z_mean = (cs.Sensitivity.mean -. m) /. se_mean in
          let z_sigma = (cs.Sensitivity.sigma -. s) /. se_sigma in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s %s: z_mean=%.2f z_sigma=%.2f (bound %.1f)"
               name side comp z_mean z_sigma bound)
            true
            (Float.abs z_mean <= bound && Float.abs z_sigma <= bound))
        [
          ("isub", (fun c -> c.Report.isub), st.Sensitivity.s_isub);
          ("igate", (fun c -> c.Report.igate), st.Sensitivity.s_igate);
          ("ibtbt", (fun c -> c.Report.ibtbt), st.Sensitivity.s_ibtbt);
          ("total", Report.total, st.Sensitivity.s_total);
        ])
    [ ("loaded", false); ("baseline", true) ]

let test_mc_inv_chain () =
  let nl = inv_chain 8 in
  check_against_mc ~name:"chain8" ~samples:10_000 ~seed:101 ~bound:3.0 nl
    (random_pattern 1 nl)

let test_mc_nand_tree () =
  let nl = nand_tree 4 in
  check_against_mc ~name:"tree16" ~samples:10_000 ~seed:202 ~bound:3.0 nl
    (random_pattern 2 nl)

let test_mc_random_dag () =
  let nl = Diff_harness.random_netlist (Rng.create 7) in
  check_against_mc ~name:"dag" ~samples:10_000 ~seed:303 ~bound:3.0 nl
    (random_pattern 3 nl)

(* ------------------------------------------------- table-moment oracle *)

(* Brute-force oracle for E[exp(T(v))], v ~ N(mu, s²): composite Simpson
   over mu ± 12s, split at the table nodes so no panel straddles a kink.
   The clamped integrand is bounded by e^{max ys}, so truncating at 12s
   loses ~1e-32 of the mass; within each smooth piece 2000 panels put the
   quadrature error far below the comparison tolerance even for the
   steepest generated slopes. *)
let oracle_expect_exp ~xs ~ys ~mu ~s =
  let g = Interp.grid1d ~xs ~ys in
  let two_pi = 8.0 *. atan 1.0 in
  let f v =
    exp (Interp.eval1d g v)
    *. exp (-.((v -. mu) *. (v -. mu)) /. (2.0 *. s *. s))
    /. (s *. sqrt two_pi)
  in
  let lo = mu -. (12.0 *. s) and hi = mu +. (12.0 *. s) in
  let breaks =
    lo :: List.filter (fun x -> x > lo && x < hi) (Array.to_list xs) @ [ hi ]
  in
  let simpson a b =
    let n = 2000 in
    let h = (b -. a) /. float_of_int n in
    let acc = ref (f a +. f b) in
    for i = 1 to n - 1 do
      let w = if i land 1 = 1 then 4.0 else 2.0 in
      acc := !acc +. (w *. f (a +. (float_of_int i *. h)))
    done;
    !acc *. h /. 3.0
  in
  let rec pieces = function
    | a :: (b :: _ as rest) -> simpson a b +. pieces rest
    | _ -> 0.0
  in
  pieces breaks

let gen_table =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* raw = array_size (return n) (float_range (-0.18) 0.18) in
    let* ys = array_size (return n) (float_range (-3.0) 3.0) in
    let* mu = float_range (-0.3) 0.3 in
    let* s = float_range 0.005 0.2 in
    let xs = Array.copy raw in
    Array.sort compare xs;
    (* enforce a minimal node gap so the grid is strictly increasing *)
    for i = 1 to n - 1 do
      if xs.(i) <= xs.(i - 1) +. 1e-4 then xs.(i) <- xs.(i - 1) +. 1e-4
    done;
    return (xs, ys, mu, s))

let prop_expect_exp_table_matches_oracle =
  qtest ~count:60 "expect_exp_table = quadrature oracle" gen_table
    (fun (xs, ys, mu, s) ->
      let a = Vth_moments.expect_exp_table ~xs ~ys ~mu ~s in
      let o = oracle_expect_exp ~xs ~ys ~mu ~s in
      Float.abs (a -. o) <= 1e-4 *. Float.max a o)

let test_expect_exp_degenerate_point () =
  let xs = [| -0.1; 0.0; 0.1 |] and ys = [| -1.0; 0.5; 2.0 |] in
  let g = Interp.grid1d ~xs ~ys in
  List.iter
    (fun mu ->
      Alcotest.(check (float 1e-15))
        (Printf.sprintf "s=0 at mu=%g is a point evaluation" mu)
        (exp (Interp.eval1d g mu))
        (Vth_moments.expect_exp_table ~xs ~ys ~mu ~s:0.0))
    [ -0.25; -0.05; 0.0; 0.07; 0.3 ]

let test_expect_exp_constant_table () =
  (* a flat table is deterministic: E[exp c] = exp c for any spread *)
  let xs = [| -0.1; 0.1 |] and ys = [| 0.7; 0.7 |] in
  Alcotest.(check (float 1e-12))
    "flat table ignores s" (exp 0.7)
    (Vth_moments.expect_exp_table ~xs ~ys ~mu:0.02 ~s:0.5)

let test_vth_log_slope_matches_fd () =
  (* λ really is the log-slope of the tabulated response the sampler
     interpolates, component by component *)
  let entry = Library.entry lib (Gate.Nand 2) (Logic.vector_of_string "01") in
  let slope = Characterize.vth_log_slope entry in
  let t = Characterize.vth_log_factor entry in
  List.iter
    (fun (name, table, analytic) ->
      Fd.check_grad ~tol:1e-6 ~name:("lambda " ^ name) ~h:1e-4
        (Interp.eval1d table) 0.0 analytic)
    [
      ("isub", t.Characterize.d_isub, slope.Report.isub);
      ("igate", t.Characterize.d_igate, slope.Report.igate);
      ("ibtbt", t.Characterize.d_ibtbt, slope.Report.ibtbt);
    ]

(* --------------------------------------------------- inter/intra split *)

let scale_sigmas k =
  {
    Variation.sigma_l = k *. sigmas.Variation.sigma_l;
    sigma_tox = k *. sigmas.Variation.sigma_tox;
    sigma_vdd = k *. sigmas.Variation.sigma_vdd;
    sigma_vth_inter = k *. sigmas.Variation.sigma_vth_inter;
    sigma_vth_intra = k *. sigmas.Variation.sigma_vth_intra;
  }

let each_stat res f =
  List.iter
    (fun (side, st) ->
      List.iter
        (fun (comp, cs) -> f (side ^ " " ^ comp) cs)
        [
          ("isub", st.Sensitivity.s_isub);
          ("igate", st.Sensitivity.s_igate);
          ("ibtbt", st.Sensitivity.s_ibtbt);
          ("total", st.Sensitivity.s_total);
        ])
    [
      ("loaded", res.Sensitivity.loaded);
      ("baseline", res.Sensitivity.baseline);
    ]

(* The split is a genuine decomposition: each mechanism alone spreads at
   most marginally more than both together (intra-averaging smooths the
   table, so Jensen can shave a fraction of a percent off the joint σ),
   and their RSS recovers σ up to the multiplicative inter×intra
   interaction the exact moments keep — super-additivity reaching ~13% at
   the paper's sigmas, vanishing as the sigmas shrink. *)
let prop_split_decomposes =
  qtest ~count:20 "sigma_inter/intra decompose sigma"
    QCheck2.Gen.(pair (float_range 0.1 1.0) (int_range 0 10_000))
    (fun (k, seed) ->
      let nl = Diff_harness.random_netlist (Rng.create seed) in
      let pattern = random_pattern (seed + 1) nl in
      let res = analytic ~sigmas:(scale_sigmas k) nl pattern in
      let ok = ref true in
      each_stat res (fun _ (cs : Sensitivity.component_stat) ->
          let s = cs.Sensitivity.sigma in
          let rss =
            sqrt
              ((cs.Sensitivity.sigma_inter *. cs.Sensitivity.sigma_inter)
              +. (cs.Sensitivity.sigma_intra *. cs.Sensitivity.sigma_intra))
          in
          ok :=
            !ok
            && cs.Sensitivity.sigma_inter <= s *. 1.02
            && cs.Sensitivity.sigma_intra <= s *. 1.02
            && rss <= s *. 1.02
            && s <= 1.25 *. rss);
      !ok)

let test_restricted_sigmas_degenerate () =
  let nl = nand_tree 3 in
  let pattern = random_pattern 4 nl in
  let intra = analytic ~sigmas:(Variation.intra_only sigmas) nl pattern in
  each_stat intra (fun name (cs : Sensitivity.component_stat) ->
      Alcotest.(check bool)
        (name ^ ": intra-only kills sigma_inter")
        true
        (cs.Sensitivity.sigma_inter <= 1e-9 *. cs.Sensitivity.sigma
        && cs.Sensitivity.sigma = cs.Sensitivity.sigma_intra));
  let inter = analytic ~sigmas:(Variation.inter_only sigmas) nl pattern in
  each_stat inter (fun name (cs : Sensitivity.component_stat) ->
      Alcotest.(check bool)
        (name ^ ": inter-only kills sigma_intra")
        true
        (cs.Sensitivity.sigma_intra <= 1e-9 *. cs.Sensitivity.sigma
        && cs.Sensitivity.sigma = cs.Sensitivity.sigma_inter))

(* ---------------------------------------------------------- determinism *)

let test_pool_sizes_bit_identical () =
  let nl = nand_tree 5 in
  let pattern = random_pattern 5 nl in
  let reference =
    Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib nl pattern
  in
  List.iter
    (fun jobs ->
      let r =
        Leakage_parallel.Pool.with_pool ~jobs (fun pool ->
            Sensitivity.estimate_totals ~pool ~fallback_samples:0 ~sigmas lib
              nl pattern)
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d bit-identical" jobs)
        true
        (Stdlib.compare reference r = 0))
    [ 1; 2; 4; 8 ]

(* Two construction orders of the same circuit: same canonical digest, and
   every reported digit of the variance result identical — the analysis
   depends only on the multiset of per-gate rows, never on gate ids. *)
let iso_netlist flip =
  let b = Netlist.Builder.create (if flip then "iso-a" else "iso-b") in
  let i0 = Netlist.Builder.input b in
  let i1 = Netlist.Builder.input b in
  let mk_inv () = Netlist.Builder.gate b Gate.Inv [| i0 |] in
  let mk_nand () = Netlist.Builder.gate b (Gate.Nand 2) [| i0; i1 |] in
  let x, y =
    if flip then
      let y = mk_nand () in
      let x = mk_inv () in
      (x, y)
    else
      let x = mk_inv () in
      let y = mk_nand () in
      (x, y)
  in
  let z = Netlist.Builder.gate b (Gate.Nor 2) [| x; y |] in
  let w = Netlist.Builder.gate b Gate.Inv [| y |] in
  Netlist.Builder.mark_output b z;
  Netlist.Builder.mark_output b w;
  Netlist.Builder.finish b

let test_construction_order_invariant () =
  let a = iso_netlist false and b = iso_netlist true in
  Alcotest.(check string)
    "same canonical digest" (Netlist.digest a) (Netlist.digest b);
  let pattern = Logic.vector_of_string "01" in
  Alcotest.(check bool)
    "bit-identical variance result" true
    (Stdlib.compare (analytic a pattern) (analytic b pattern) = 0)

let test_incremental_sigma_matches_fresh () =
  let nl = Diff_harness.random_netlist (Rng.create 11) in
  let pattern = random_pattern 12 nl in
  let s = Incremental.create lib nl pattern in
  let rng = Rng.create 13 in
  for _ = 1 to 3 do
    Incremental.apply s
      (Edit.random_resize ~strengths:[| 0.5; 1.0; 2.0 |] rng
         (Incremental.current_netlist s))
  done;
  Incremental.apply s (Edit.random_set_input rng (Incremental.current_netlist s));
  Incremental.refresh s;
  let from_session = Incremental.sigma ~sigmas s in
  let _, _, fresh =
    Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas lib
      (Incremental.current_netlist s)
      (Incremental.pattern s)
  in
  Alcotest.(check bool)
    "refreshed session sigma = fresh pass" true
    (Stdlib.compare from_session fresh = 0)

(* The same circuit built in two topological gate orders, analyzed on
   pools of 1, 2 and 4 lanes: six bit-identical variance results. Three
   cell kinds at two strengths make at most 20 classes over 150-400 gates,
   so classes have many members and the canonical order inside a class is
   what is under test.
   Every net drives at most two pins: the estimator sums a net's pin
   currents in gate order, and two addends commute exactly where three
   need not, so the per-gate states themselves are the same multiset in
   both builds. *)
type ref_net = Pi of int | Out of int

let gen_two_orders =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_gates = int_range 150 400 in
    let rng = Rng.create seed in
    let n_inputs = 4 + Rng.int rng 5 in
    let uses = Hashtbl.create 64 in
    let free = ref (List.init n_inputs (fun i -> Pi i)) in
    let take () =
      let net = List.nth !free (Rng.int rng (List.length !free)) in
      let u = 1 + Option.value ~default:0 (Hashtbl.find_opt uses net) in
      Hashtbl.replace uses net u;
      if u = 2 then free := List.filter (fun m -> m <> net) !free;
      net
    in
    let gates =
      Array.init n_gates (fun g ->
          let kind =
            match Rng.int rng 3 with
            | 0 -> Gate.Inv
            | 1 -> Gate.Nand 2
            | _ -> Gate.Nor 2
          in
          let strength = if Rng.int rng 4 = 0 then 2.0 else 1.0 in
          let ins = Array.init (Gate.arity kind) (fun _ -> take ()) in
          free := Out g :: !free;
          (kind, strength, ins))
    in
    (* a second topological order: Kahn's algorithm, random among ready *)
    let pending =
      Array.map
        (fun (_, _, ins) ->
          Array.fold_left
            (fun acc -> function Out _ -> acc + 1 | Pi _ -> acc)
            0 ins)
        gates
    in
    let ready =
      ref (List.filter (fun g -> pending.(g) = 0) (List.init n_gates Fun.id))
    in
    let order = ref [] in
    while !ready <> [] do
      let g = List.nth !ready (Rng.int rng (List.length !ready)) in
      ready := List.filter (( <> ) g) !ready;
      order := g :: !order;
      Array.iteri
        (fun h (_, _, ins) ->
          Array.iter
            (fun net ->
              if net = Out g then begin
                pending.(h) <- pending.(h) - 1;
                if pending.(h) = 0 then ready := h :: !ready
              end)
            ins)
        gates
    done;
    let unused = List.filter (fun net -> not (Hashtbl.mem uses net)) in
    return
      ( n_inputs,
        gates,
        Array.of_list (List.rev !order),
        unused (List.init n_inputs (fun i -> Pi i)),
        unused (List.init n_gates (fun g -> Out g)),
        seed ))

let build_in_order (n_inputs, gates, order, unused_pis, unused_outs, _) ~flip =
  let b = Netlist.Builder.create "orders" in
  let pis = Array.init n_inputs (fun _ -> Netlist.Builder.input b) in
  let outs = Array.make (Array.length gates) (-1) in
  let net = function Pi i -> pis.(i) | Out g -> outs.(g) in
  let place g =
    let kind, strength, ins = gates.(g) in
    outs.(g) <- Netlist.Builder.gate ~strength b kind (Array.map net ins)
  in
  if flip then Array.iter place order
  else Array.iteri (fun g _ -> place g) gates;
  (* an unread input still loads the circuit through one inverter *)
  List.iter
    (fun pi -> Netlist.Builder.mark_output b (Netlist.Builder.gate b Gate.Inv [| net pi |]))
    unused_pis;
  List.iter (fun o -> Netlist.Builder.mark_output b (net o)) unused_outs;
  Netlist.Builder.finish b

let prop_orders_and_pools_bit_identical =
  qtest ~count:12 "gate order x pool size leave sigma bit-identical"
    gen_two_orders (fun ((n_inputs, _, _, _, _, seed) as c) ->
      let a = build_in_order c ~flip:false and b = build_in_order c ~flip:true in
      let pattern = Logic.random_vector (Rng.create (seed + 1)) n_inputs in
      let sigma ?pool nl =
        let _, _, res =
          Sensitivity.estimate_totals ?pool ~fallback_samples:0 ~sigmas lib nl
            pattern
        in
        res
      in
      let reference = sigma a in
      String.equal (Netlist.digest a) (Netlist.digest b)
      && reference.Sensitivity.groups * 5 <= Netlist.gate_count a
      && Stdlib.compare reference (sigma b) = 0
      && List.for_all
           (fun jobs ->
             Pool.with_pool ~jobs (fun pool ->
                 Stdlib.compare reference (sigma ~pool a) = 0
                 && Stdlib.compare reference (sigma ~pool b) = 0))
           [ 1; 2; 4 ])

(* ------------------------------------------------------------- fallback *)

let test_geometry_flag_triggers_mc_fallback () =
  (* A wild length sigma pushes the ±2σ corner against the geometry clamp,
     far outside the quadratic log model: the component must flag, and the
     default entry point must swap in the MC fallback (marked from_mc)
     while fallback_samples:0 keeps the flagged closed form. *)
  let wild = { sigmas with Variation.sigma_l = 0.25 *. device.Params.length } in
  let nl = inv_chain 4 in
  let pattern = random_pattern 6 nl in
  let _, _, closed =
    Sensitivity.estimate_totals ~fallback_samples:0 ~sigmas:wild lib nl pattern
  in
  Alcotest.(check bool) "flag trips" true (Sensitivity.flagged closed);
  each_stat closed (fun name (cs : Sensitivity.component_stat) ->
      Alcotest.(check bool) (name ^ ": no MC when disabled") false
        cs.Sensitivity.from_mc);
  let _, _, fb =
    Sensitivity.estimate_totals ~fallback_samples:500 ~fallback_seed:5
      ~sigmas:wild lib nl pattern
  in
  Alcotest.(check bool) "still reported as flagged" true
    (Sensitivity.flagged fb);
  let flagged_of = function
    | "isub" -> fb.Sensitivity.flagged_isub
    | "igate" -> fb.Sensitivity.flagged_igate
    | "ibtbt" -> fb.Sensitivity.flagged_ibtbt
    | _ -> Sensitivity.flagged fb (* total inherits any flag *)
  in
  each_stat fb (fun name (cs : Sensitivity.component_stat) ->
      let comp = List.nth (String.split_on_char ' ' name) 1 in
      Alcotest.(check bool)
        (name ^ ": from_mc iff flagged")
        (flagged_of comp) cs.Sensitivity.from_mc;
      Alcotest.(check bool)
        (name ^ ": finite and positive")
        true
        (Float.is_finite cs.Sensitivity.mean
        && Float.is_finite cs.Sensitivity.sigma
        && cs.Sensitivity.mean > 0.0))

(* ----------------------------------------------------------------- work *)

let work_counters =
  [ "sensitivity.passes"; "sensitivity.classes"; "sensitivity.class_misses";
    "sensitivity.table_integrals"; "sensitivity.fallbacks" ]

(* The analytic pass's counters across [f]: passes, classes, classes whose
   integrals the library computed, table integrals, fallbacks. *)
let work_of f =
  let was = Tm.enabled () in
  Tm.set_enabled true;
  Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
  let read () =
    let snap = Tm.Snapshot.take () in
    List.map (Tm.Snapshot.counter_total snap) work_counters
  in
  let before = read () in
  let r = f () in
  (List.map2 ( - ) (read ()) before, r)

(* Table integrals per class under the paper's sigmas: 9 for the means and
   same-gate pairs of each of the three sigma sets, plus the 3 x 65
   quadrature nodes of the full set's conditional factors. *)
let integrals_per_class = 222

(* A class's table integrals depend on its tables and the sigma pair
   alone, never on how many gates share the class or how many lanes ran
   it. On a fresh library every class is computed — 222 integrals each, on
   a 1024- and a 16384-stage chain, sequential and on two lanes — and the
   same call again computes nothing and reads the same bits. *)
let test_work_counts () =
  List.iter
    (fun stages ->
      let nl = Trees.chain ~stages ~tap_every:64 () in
      let pattern = random_pattern 9 nl in
      List.iter
        (fun jobs ->
          let label = Printf.sprintf "chain%d on %d lane(s)" stages jobs in
          let lib = fresh_lib () in
          Pool.with_pool ~jobs (fun pool ->
              let pass () =
                work_of (fun () ->
                    Sensitivity.estimate_totals ~pool ~fallback_samples:0
                      ~sigmas lib nl pattern)
              in
              match (pass (), pass ()) with
              | ( ([ passes; classes; misses; integrals; fallbacks ], cold),
                  ([ passes'; classes'; misses'; integrals'; fallbacks' ], warm) )
                ->
                let _, _, res = cold in
                Alcotest.(check (list int)) (label ^ ": one pass each, no fallback")
                  [ 1; 0; 1; 0 ] [ passes; fallbacks; passes'; fallbacks' ];
                Alcotest.(check (list int)) (label ^ ": classes on both calls")
                  [ res.Sensitivity.groups; res.Sensitivity.groups ]
                  [ classes; classes' ];
                Alcotest.(check int) (label ^ ": cold, every class computed")
                  classes misses;
                Alcotest.(check int)
                  (label ^ ": cold, 222 integrals per computed class")
                  (integrals_per_class * misses) integrals;
                Alcotest.(check (pair int int)) (label ^ ": warm, nothing computed")
                  (0, 0) (misses', integrals');
                Alcotest.(check bool) (label ^ ": warm result bit-identical") true
                  (Stdlib.compare cold warm = 0)
              | _ -> assert false))
        [ 1; 2 ])
    [ 1024; 16384 ]

(* A flagged pass that falls back to the sampler counts once; with
   [fallback_samples:0] the same pass counts none. *)
let test_fallback_counted () =
  let wild = { sigmas with Variation.sigma_l = 0.25 *. device.Params.length } in
  let nl = inv_chain 4 in
  let pattern = random_pattern 6 nl in
  List.iter
    (fun (samples, expected) ->
      match
        work_of (fun () ->
            Sensitivity.estimate_totals ~fallback_samples:samples
              ~fallback_seed:5 ~sigmas:wild lib nl pattern)
      with
      | [ passes; _; _; _; fallbacks ], _ ->
        Alcotest.(check int) "one pass" 1 passes;
        Alcotest.(check int)
          (Printf.sprintf "fallbacks at %d samples" samples)
          expected fallbacks
      | _ -> assert false)
    [ (0, 0); (200, 1) ]

(* Allocation gate, deterministic in a sequential run with telemetry off:
   the minor words [Sensitivity.estimate_totals] allocates beyond the
   estimator pass it rides — [Estimator.estimate_fold], here with a no-op
   fold, which allocates nothing per gate — on a library whose entries are
   warm and whose σ memo is cold, then again on the warm memo. Per gate on
   the 16k chain (6 classes, so the per-gate bucketing shows) and per
   class on s838 (111 classes, so the per-class integrals show). Measured
   cold: 2.28 words per gate (4.81 while the fold handed each gate's
   components over as a record, the classing hashed every gate's tables
   and [Array.stable_sort] made a closure per merge), bound 25% above;
   3555 words per class cold and 310 warm (420 while each call rebuilt
   the plan's quadratures), under bounds set 25% above the first
   readings (3528 and 444). The entries' threshold tables are built in
   the warm-up: they are characterization work σ's first read does. *)
let test_sigma_minor_words () =
  let was = Tm.enabled () in
  Tm.set_enabled false;
  Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
  let words f =
    let w0 = Gc.minor_words () in
    let r = f () in
    (Gc.minor_words () -. w0, r)
  in
  let extra nl =
    let lib = fresh_lib () in
    Netlist.warm nl;
    let pattern = random_pattern 21 nl in
    let fold () =
      Estimator.estimate_fold ~init:()
        ~f:(fun () _ _ ~loaded:_ -> ())
        lib nl pattern
    in
    (* the warm-up also builds the entries' threshold tables, the
       characterization work σ's first read would do *)
    ignore
      (Estimator.estimate_fold ~init:()
         ~f:(fun () _ e ~loaded:_ -> ignore (Characterize.vth_log_factor e))
         lib nl pattern);
    let base, _ = words fold in
    let cold, res = words (fun () -> analytic ~lib nl pattern) in
    let warm, _ = words (fun () -> analytic ~lib nl pattern) in
    (cold -. base, warm -. base, res.Sensitivity.groups)
  in
  let chain = Trees.chain ~stages:16384 ~tap_every:64 () in
  let w, _, classes = extra chain in
  let per_gate = w /. float_of_int (Netlist.gate_count chain) in
  let gate_bound = 2.85 in
  Alcotest.(check bool)
    (Printf.sprintf "chain16k: %.2f words per gate, %d classes (bound %g)"
       per_gate classes gate_bound)
    true (per_gate <= gate_bound);
  let cold, warm, classes = extra ((Suite.find "s838").Suite.build ()) in
  let per_class w = w /. float_of_int classes in
  let check label w bound =
    Alcotest.(check bool)
      (Printf.sprintf "s838 %s: %.0f words per class over %d (bound %g)"
         label (per_class w) classes bound)
      true (per_class w <= bound)
  in
  check "cold memo" cold 4410.0;
  check "warm memo" warm 555.0

(* A warm one-gate [Sensitivity.analyze]: its class integrals, its die
   geometry and its plan's quadratures come from the library's memo, so
   what is left is the per-call assembly. Measured: 4820 minor words a
   call (6034 while every call rebuilt the plan's quadratures, 16986
   while it also recomputed the reference inverter's geometry jets and
   ±2σ residuals); the bound is 25% above. *)
let test_one_gate_analyze_minor_words () =
  let was = Tm.enabled () in
  Tm.set_enabled false;
  Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
  let lib = fresh_lib () in
  let e = Library.entry lib (Gate.Nand 2) (Logic.vector_of_string "10") in
  let iso = e.Characterize.nominal_isolated in
  let comps = [| iso.Report.isub; iso.Report.igate; iso.Report.ibtbt |] in
  let analyze () =
    Sensitivity.analyze ~sigmas lib ~entries:[| e |] ~loaded:comps
      ~isolated:comps
  in
  let first = analyze () in
  let calls = 20 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (analyze ())
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int calls in
  Alcotest.(check bool) "warm result bit-identical" true
    (Stdlib.compare first (analyze ()) = 0);
  let bound = 6025.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per warm one-gate call (bound %g)" per bound)
    true (per <= bound)

(* The sampler [@sigma-check] compares against, gated the same way: minor
   words of a sequential [Statistical.run] on s838 per gate-sample, all
   included — the per-call estimator pass, each sample's die draw and its
   two shifted reference-inverter solves, and per gate the threshold draw.
   Measured: 5.59 words per gate-sample, all of it per-sample work (28.76
   while [Rng] boxed its state and every Gaussian draw, 80.73 before the
   factors and sums moved into float scratch); the bound is 25% above. *)
let test_sampler_minor_words () =
  let was = Tm.enabled () in
  Tm.set_enabled false;
  Fun.protect ~finally:(fun () -> Tm.set_enabled was) @@ fun () ->
  let nl = (Suite.find "s838").Suite.build () in
  let pattern = random_pattern 23 nl in
  let run n = Statistical.run ~n_samples:n ~seed:4 ~sigmas lib nl pattern in
  ignore (run 2);
  let samples = 256 in
  let w0 = Gc.minor_words () in
  ignore (run samples);
  let per =
    (Gc.minor_words () -. w0)
    /. float_of_int (samples * Netlist.gate_count nl)
  in
  let bound = 7.0 in
  Alcotest.(check bool)
    (Printf.sprintf "s838: %.2f words per gate-sample (bound %g)" per bound)
    true (per <= bound)

let () =
  Alcotest.run "sensitivity"
    [
      ( "mc-differential",
        [
          Alcotest.test_case "inverter chain" `Slow test_mc_inv_chain;
          Alcotest.test_case "nand tree" `Slow test_mc_nand_tree;
          Alcotest.test_case "random dag" `Slow test_mc_random_dag;
        ] );
      ( "table moments",
        [
          prop_expect_exp_table_matches_oracle;
          Alcotest.test_case "s=0 point evaluation" `Quick
            test_expect_exp_degenerate_point;
          Alcotest.test_case "flat table" `Quick test_expect_exp_constant_table;
          Alcotest.test_case "lambda vs FD" `Quick test_vth_log_slope_matches_fd;
        ] );
      ( "inter/intra",
        [
          prop_split_decomposes;
          Alcotest.test_case "restricted sigmas degenerate" `Quick
            test_restricted_sigmas_degenerate;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pool sizes" `Quick test_pool_sizes_bit_identical;
          Alcotest.test_case "construction order" `Quick
            test_construction_order_invariant;
          Alcotest.test_case "incremental vs fresh" `Quick
            test_incremental_sigma_matches_fresh;
          prop_orders_and_pools_bit_identical;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "geometry flag -> MC" `Quick
            test_geometry_flag_triggers_mc_fallback;
        ] );
      ( "work",
        [
          Alcotest.test_case "integrals per class" `Quick test_work_counts;
          Alcotest.test_case "fallback counted" `Quick test_fallback_counted;
          Alcotest.test_case "minor words" `Quick test_sigma_minor_words;
          Alcotest.test_case "one-gate analyze minor words" `Quick
            test_one_gate_analyze_minor_words;
          Alcotest.test_case "sampler minor words" `Quick
            test_sampler_minor_words;
        ] );
    ]
