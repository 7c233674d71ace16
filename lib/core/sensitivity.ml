(* Analytic variance propagation: MC-quality mean/σ bars in one estimator
   pass (ROADMAP "analytic variance propagation"; the statistical model is
   the one [Statistical.run] samples).

   The sampled model for one circuit instance and component c is

     T_c  =  S_c(δl, δtox, δvdd) · Σ_g L_{g,c} · exp(l_{g,c}(x + y_g))

   where S_c is the die-scale factor (geometry/supply response of the
   reference inverter, shared by every gate), l_{g,c} the gate's tabulated
   threshold log-response, x ~ N(0, σ_vth_inter) the die threshold shift
   (shared — fully correlated across gates) and y_g ~ N(0, σ_vth_intra)
   per-gate and independent: exactly the inter/intra split
   [Variation.sigmas] defines.

   Sensitivities are taken in LOG space — ∂ln I/∂p — because the dominant
   subthreshold response is exponential (λ·σ ≈ 0.9 at the paper's sigmas):
   a linear-space first-order propagation would bias σ by tens of percent.
   Two regimes get two treatments:

   - threshold: l_{g,c} is the clamped piecewise-linear vth_log_factor
     table the sampler interpolates, and its Gaussian expectations are
     integrated against that very table — exactly, per segment, via the
     normal CDF (∫ e^{α+βv} φ(v) dv has a closed form on every linear
     piece, and the clamped tails are constants). A pure log-linear λ
     model is measurably wrong here: the table bends and clamps within
     ±3σ of the paper's threshold spread, which biases σ_isub by ~25%
     and lets a single steep-slope outlier entry blow the pair moments
     up through e^{(λ_j+λ_k)²σx²/2}. Integrating the clamped table keeps
     every moment finite and matches the sampler by construction. The
     per-gate λ ([Characterize.vth_log_slope]) is still reported as the
     first-order sensitivity and validated against finite differences.
   - geometry/supply: λ and curvature γ of ln S_c per axis from the
     jet-valued compact model ([Model.components_jet]) evaluated on the
     rail-biased reference inverter ([Die_geometry]; the library keeps
     them per sigma triple) — closed-form derivatives of the device
     equations, validated against finite differences by the test suite.
     These enter as independent quadratic-exponent Gaussian moments
     E[exp(aδ + bδ²/2)] = e^{a²σ²/2(1−bσ²)}/√(1−bσ²).

   Moments: gates are grouped by their response tables (gates sharing a
   characterization entry are statistically identical), giving sums over
   K ≪ gates groups with per-group weights A_k^c = Σ_g L_{g,c} and
   B_k^{cd} = Σ_g L_{g,c}·L_{g,d}:

     E[U_c]      = Σ_k A_k^c · E[e^{l_k,c(v)}],        v ~ N(0, σx²+σy²)
     E[U_c U_d]  = E_x[(Σ_j A_j^c f_j^c(x)) (Σ_k A_k^d f_k^d(x))]
                   + Σ_k B_k^{cd} · (E[e^{(l_c+l_d)(v)}] − E_x[f^c f^d])

   where f_k^c(x) = E_y[e^{l(x+y)}] is the per-gate factor conditioned on
   the shared die shift x (again an exact segment integral, in σy). The
   outer E_x is a fixed-node composite-Simpson quadrature when both
   spreads are live; when σy = 0 it runs on the raw clamped table with a
   denser grid, and when σx = 0 the gates decouple and everything is
   closed-form. The B term swaps the quadrature's independent-y diagonal
   for the exact shared-y summed-table integral — the correction that
   re-ties y_g to itself when both factors come from one gate.

   Linearization is checked where linearization is actually used: per
   geometry axis, the quadratic model is compared against the true
   compact-model log-response at ±2σ; where the check (or a diverging
   quadratic moment) trips, the component is flagged and (optionally)
   falls back to the MC sampler. The threshold axis needs no fallback —
   it is integrated exactly — but gates whose tabulated response departs
   from its own first-order line by more than the tolerance at ±2σ_dv are
   counted in [flagged_gates], marking where the reported λ alone would
   mislead. *)

module Variation = Leakage_device.Variation
module Interp = Leakage_numeric.Interp
module Logic = Leakage_circuit.Logic
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Pool = Leakage_parallel.Pool
module Tm = Leakage_telemetry.Telemetry

(* The analytic pass's work: analyses run, response classes they summed
   over, and passes that fell back to the sampler. The exact table
   integrals count in [Vth_moments], and the classes whose integrals a
   library had to compute in [Library]. *)
let m_passes = Tm.counter "sensitivity.passes"
let m_classes = Tm.counter "sensitivity.classes"
let m_fallbacks = Tm.counter "sensitivity.fallbacks"

let default_lin_tol = 0.05

(* ------------------------------------------------------------- results *)

type component_stat = {
  mean : float;
  sigma : float;
  sigma_inter : float;
  sigma_intra : float;
  from_mc : bool;
}

type stats = {
  s_isub : component_stat;
  s_igate : component_stat;
  s_ibtbt : component_stat;
  s_total : component_stat;
}

type result = {
  loaded : stats;
  baseline : stats;
  flagged_isub : bool;
  flagged_igate : bool;
  flagged_ibtbt : bool;
  flagged_gates : int;
  groups : int;
}

let flagged r = r.flagged_isub || r.flagged_igate || r.flagged_ibtbt

(* ------------------------------------------------------ response classes *)

let cmp_fa = Vth_moments.cmp_fa

let cmp_tab (t1 : Vth_moments.tab) (t2 : Vth_moments.tab) =
  let c = cmp_fa t1.t_xs t2.t_xs in
  if c <> 0 then c else cmp_fa t1.t_ys t2.t_ys

let cmp_tabs a b =
  let rec go i =
    if i = 3 then 0
    else
      let c = cmp_tab a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Gates whose threshold tables agree value for value are statistically
   identical: one response class. Equality is [Float.compare]'s: ±0.0 is
   one value, and so are all NaNs. The key is the tables' value, never a
   library key: an incremental session's [Relib] gates take entries from
   other libraries. λ is computed from the tables, so gates with equal
   tables share it too and the key (λ, tables) is the key (tables). *)
module Class_key = Hashtbl.Make (struct
  type t = Characterize.table

  let equal a b = compare a b = 0

  (* The node values only (every table shares its axis), as
     [Float.compare] sees them. *)
  let mix h (g : Interp.grid1d) = Vth_moments.mix h g.Interp.ys

  let hash (t : t) =
    mix (mix (mix 0 t.Characterize.d_isub) t.Characterize.d_igate)
      t.Characterize.d_ibtbt
    land max_int
end)

type group = {
  k_tabs : Vth_moments.tab array;
                           (* 3: the class's shared threshold log-response *)
  k_lam : float array;     (* 3 *)
  k_count : int;
  k_a : float array;       (* 3: Σ loaded_c *)
  k_b : float array;       (* 9 (c*3+d): Σ loaded_c · loaded_d *)
  k_a_base : float array;
  k_b_base : float array;
}

(* Class order: (λ, tables) under [Float.compare], component by component. *)
let cmp_group g1 g2 =
  let c = cmp_fa g1.k_lam g2.k_lam in
  if c <> 0 then c else cmp_tabs g1.k_tabs g2.k_tabs

(* [Float.compare] without its C call: ±0.0 are one value, NaN equals NaN
   and sorts below every other float. *)
let[@inline] fcmp (x : float) y =
  if x < y then -1
  else if x > y then 1
  else if x = y then 0
  else if x = x then 1
  else if y = y then -1
  else 0

(* Gates [g1] and [g2] by their three components in the flat array [a]. *)
let[@inline] cmp3 (a : float array) g1 g2 =
  let i1 = 3 * g1 and i2 = 3 * g2 in
  let c = fcmp a.(i1) a.(i2) in
  if c <> 0 then c
  else
    let c = fcmp a.(i1 + 1) a.(i2 + 1) in
    if c <> 0 then c else fcmp a.(i1 + 2) a.(i2 + 2)

(* Gate ids stably sorted by their loaded, then isolated, components:
   [Array.stable_sort]'s order (a stable sort's result is unique), from
   insertion-sorted runs of 8 merged bottom-up through one buffer, with no
   closure made per merge. *)
let sort_members ~(loaded : float array) ~(isolated : float array)
    (a : int array) =
  let n = Array.length a in
  let le g1 g2 =
    let c = cmp3 loaded g1 g2 in
    if c <> 0 then c < 0 else cmp3 isolated g1 g2 <= 0
  in
  let run = 8 in
  let lo = ref 0 in
  while !lo < n do
    let hi = Stdlib.min n (!lo + run) in
    for i = !lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && not (le a.(!j) x) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    lo := hi
  done;
  if n > run then begin
    let src = ref a and dst = ref (Array.make n 0) in
    let width = ref run in
    while !width < n do
      let s = !src and d = !dst in
      let lo = ref 0 in
      while !lo < n do
        let mid = Stdlib.min n (!lo + !width)
        and hi = Stdlib.min n (!lo + (2 * !width)) in
        let i = ref !lo and j = ref mid and k = ref !lo in
        while !i < mid && !j < hi do
          if le s.(!i) s.(!j) then begin
            d.(!k) <- s.(!i);
            incr i
          end
          else begin
            d.(!k) <- s.(!j);
            incr j
          end;
          incr k
        done;
        Array.blit s !i d !k (mid - !i);
        Array.blit s !j d (!k + mid - !i) (hi - !j);
        lo := hi
      done;
      src := d;
      dst := s;
      width := 2 * !width
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* One class's weights: its members summed in canonical (loaded, isolated)
   order under [Float.compare], so every per-class float sum is independent
   of gate numbering, construction order and pool partitioning — the
   foundation of the "same digest ⇒ identical sigmas" property. The class's
   tables and λ come from its first member in that order. *)
let group_of_members ~entries ~(loaded : float array) ~(isolated : float array)
    members =
  sort_members ~loaded ~isolated members;
  let entry = entries.(members.(0)) in
  let lam = Characterize.vth_log_slope entry in
  let tab_of (g : Interp.grid1d) =
    { Vth_moments.t_xs = g.Interp.xs; t_ys = g.Interp.ys }
  in
  let t = Characterize.vth_log_factor entry in
  let a = Array.make 3 0.0
  and b = Array.make 9 0.0
  and a_base = Array.make 3 0.0
  and b_base = Array.make 9 0.0 in
  Array.iter
    (fun g ->
      let o = 3 * g in
      for c = 0 to 2 do
        let lc = loaded.(o + c) and ic = isolated.(o + c) in
        a.(c) <- a.(c) +. lc;
        a_base.(c) <- a_base.(c) +. ic;
        for d = 0 to 2 do
          b.((c * 3) + d) <- b.((c * 3) + d) +. (lc *. loaded.(o + d));
          b_base.((c * 3) + d) <- b_base.((c * 3) + d) +. (ic *. isolated.(o + d))
        done
      done)
    members;
  {
    k_tabs =
      [| tab_of t.Characterize.d_isub; tab_of t.Characterize.d_igate;
         tab_of t.Characterize.d_ibtbt |];
    k_lam = [| lam.Report.isub; lam.Report.igate; lam.Report.ibtbt |];
    k_count = Array.length members;
    k_a = a;
    k_b = b;
    k_a_base = a_base;
    k_b_base = b_base;
  }

(* The gate ids of each class, classes in first-seen order and members in
   gate order. In front of the value-keyed [Class_key] sits a per-call
   cache of the entries already classed, probed by a hash of one nominal
   current's bits and checked with [==]: each distinct entry's tables are
   hashed once, and every other gate costs a probe. *)
let class_members entries =
  let n = Array.length entries in
  let ids = Class_key.create 64 in
  let empty = Library.vacant in
  let keys = ref (Array.make 64 empty) and vals = ref (Array.make 64 0) in
  let size = ref 0 in
  let home (e : Characterize.entry) mask =
    let h =
      Int64.to_int
        (Int64.bits_of_float e.Characterize.nominal_driven.Report.isub)
      * 0x9E3779B1
    in
    (h lxor (h lsr 29)) land mask
  in
  let rec place e k =
    let mask = Array.length !keys - 1 in
    let i = ref (home e mask) in
    while !keys.(!i) != empty do
      i := (!i + 1) land mask
    done;
    !keys.(!i) <- e;
    !vals.(!i) <- k
  and grow () =
    let old_keys = !keys and old_vals = !vals in
    keys := Array.make (2 * Array.length old_keys) empty;
    vals := Array.make (2 * Array.length old_keys) 0;
    Array.iteri (fun i e -> if e != empty then place e old_vals.(i)) old_keys
  in
  let class_of e =
    let mask = Array.length !keys - 1 in
    let i = ref (home e mask) in
    while !keys.(!i) != e && !keys.(!i) != empty do
      i := (!i + 1) land mask
    done;
    if !keys.(!i) == e then !vals.(!i)
    else begin
      let key = Characterize.vth_log_factor e in
      let k =
        match Class_key.find ids key with
        | k -> k
        | exception Not_found ->
          let k = Class_key.length ids in
          Class_key.add ids key k;
          k
      in
      incr size;
      if 2 * !size > Array.length !keys then grow ();
      place e k;
      k
    end
  in
  let cls = Array.make n 0 in
  for g = 0 to n - 1 do
    cls.(g) <- class_of entries.(g)
  done;
  let nk = Class_key.length ids in
  let count = Array.make nk 0 in
  Array.iter (fun k -> count.(k) <- count.(k) + 1) cls;
  let members = Array.map (fun m -> Array.make m 0) count in
  let fill = Array.make nk 0 in
  Array.iteri
    (fun g k ->
      members.(k).(fill.(k)) <- g;
      fill.(k) <- fill.(k) + 1)
    cls;
  members

(* Threshold-axis second-moment engine for one sigma pair over the classes'
   precomputed integrals: the returned closure folds in one column's (A, B)
   weights, summing across classes sequentially in class order. See the
   module header for the regime split. *)
let vth_engine ~(ints : Vth_moments.integrals array) ~quad ~sy =
  let nk = Array.length ints in
  fun ~a_of ~b_of ->
    let eu =
      Array.init 3 (fun c ->
          let s = ref 0.0 in
          for k = 0 to nk - 1 do
            s := !s +. ((a_of k).(c) *. ints.(k).m1.(c))
          done;
          !s)
    in
    let euu =
      match quad with
      | None ->
          (* σx = 0: gates decouple; pair moments factor through the means
             with the exact same-gate correction. Written as B·(shared −
             m·m) so the intra-only covariance never cancels two large
             sums against each other. *)
          Array.init 3 (fun c ->
              Array.init 3 (fun d ->
                  let corr = ref 0.0 in
                  for k = 0 to nk - 1 do
                    let m1 = ints.(k).m1 in
                    corr :=
                      !corr
                      +. ((b_of k).((c * 3) + d)
                          *. (ints.(k).shared.((c * 3) + d)
                              -. (m1.(c) *. m1.(d))))
                  done;
                  (eu.(c) *. eu.(d)) +. !corr))
      | Some { Vth_moments.wphi; _ } ->
          let n = Array.length wphi in
          (* column-projected conditional means Σ_k A_k f_k(x_i) *)
          let big =
            Array.init 3 (fun c ->
                let acc = Array.make n 0.0 in
                for k = 0 to nk - 1 do
                  let ak = (a_of k).(c) and fk = ints.(k).f.(c) in
                  for i = 0 to n - 1 do
                    acc.(i) <- acc.(i) +. (ak *. fk.(i))
                  done
                done;
                acc)
          in
          Array.init 3 (fun c ->
              Array.init 3 (fun d ->
                  let cross = ref 0.0 in
                  for i = 0 to n - 1 do
                    cross := !cross +. (wphi.(i) *. big.(c).(i) *. big.(d).(i))
                  done;
                  let corr = ref 0.0 in
                  if sy > 0.0 then
                    for k = 0 to nk - 1 do
                      corr :=
                        !corr
                        +. ((b_of k).((c * 3) + d)
                            *. (ints.(k).shared.((c * 3) + d)
                                -. ints.(k).sh_indep.((c * 3) + d)))
                    done;
                  !cross +. !corr))
    in
    (eu, euu)

(* --------------------------------------------------------- moment sums *)

(* E[exp(a·δ + b·δ²/2)] for δ ~ N(0, σ): exact for a quadratic exponent,
   finite only while b·σ² < 1. *)
let m_quad a b sigma =
  let s2 = sigma *. sigma in
  let u = 1.0 -. (b *. s2) in
  if u <= 0.0 then Float.infinity
  else exp (a *. a *. s2 /. (2.0 *. u)) /. sqrt u

(* Per-component means and covariance matrices of both columns (loaded,
   baseline) under one sigma set. Class iteration is in canonical (sorted)
   order, so the result is a function of the gates' multiset only. *)
let column_moments ~groups ~geom ~(sigmas : Variation.sigmas) ~ints ~quad =
  let { Die_geometry.g_lam; g_gam; _ } = geom in
  let ax_sigma =
    [| sigmas.Variation.sigma_l; sigmas.Variation.sigma_tox;
       sigmas.Variation.sigma_vdd |]
  in
  let es =
    Array.init 3 (fun c ->
        let f = ref 1.0 in
        for ax = 0 to 2 do
          f := !f *. m_quad g_lam.(ax).(c) g_gam.(ax).(c) ax_sigma.(ax)
        done;
        !f)
  in
  let ess c d =
    let f = ref 1.0 in
    for ax = 0 to 2 do
      f :=
        !f
        *. m_quad
             (g_lam.(ax).(c) +. g_lam.(ax).(d))
             (g_gam.(ax).(c) +. g_gam.(ax).(d))
             ax_sigma.(ax)
    done;
    !f
  in
  let engine = vth_engine ~ints ~quad ~sy:sigmas.Variation.sigma_vth_intra in
  fun ~base ->
    let a_of k = if base then groups.(k).k_a_base else groups.(k).k_a in
    let b_of k = if base then groups.(k).k_b_base else groups.(k).k_b in
    let eu, euu = engine ~a_of ~b_of in
    let means = Array.init 3 (fun c -> es.(c) *. eu.(c)) in
    let cov =
      Array.init 3 (fun c ->
          Array.init 3 (fun d ->
              (ess c d *. euu.(c).(d)) -. (means.(c) *. means.(d))))
    in
    (means, cov)

(* ------------------------------------------------------------- analyze *)

let stat_of ~mean ~var ~var_inter ~var_intra =
  {
    mean;
    sigma = sqrt (Float.max 0.0 var);
    sigma_inter = sqrt (Float.max 0.0 var_inter);
    sigma_intra = sqrt (Float.max 0.0 var_intra);
    from_mc = false;
  }

(* The three sigma-set closures (full, inter-only, intra-only) are built
   once and applied to both columns: all weight-independent table integrals
   are shared between the loaded and baseline assemblies. *)
let column_stats ~groups ~geom ~sets ~quads ~ints =
  let moments i =
    column_moments ~groups ~geom ~sigmas:sets.(i)
      ~ints:(Array.map (fun per_set -> per_set.(i)) ints)
      ~quad:quads.(i)
  in
  let full = moments 0 and inter = moments 1 and intra = moments 2 in
  fun ~base ->
  let means, cov = full ~base in
  let _, cov_inter = inter ~base in
  let _, cov_intra = intra ~base in
  let comp c =
    stat_of ~mean:means.(c) ~var:cov.(c).(c) ~var_inter:cov_inter.(c).(c)
      ~var_intra:cov_intra.(c).(c)
  in
  let sum_all m = m.(0) +. m.(1) +. m.(2) in
  let total_var (cv : float array array) =
    let s = ref 0.0 in
    for c = 0 to 2 do
      for d = 0 to 2 do
        s := !s +. cv.(c).(d)
      done
    done;
    !s
  in
  {
    s_isub = comp 0;
    s_igate = comp 1;
    s_ibtbt = comp 2;
    s_total =
      stat_of ~mean:(sum_all means) ~var:(total_var cov)
        ~var_inter:(total_var cov_inter) ~var_intra:(total_var cov_intra);
  }

let analyze ?pool ?(lin_tol = default_lin_tol) ~(sigmas : Variation.sigmas)
    lib ~entries ~loaded ~isolated =
  let n = Array.length entries in
  if Array.length loaded <> 3 * n || Array.length isolated <> 3 * n then
    invalid_arg "Sensitivity.analyze: loaded and isolated need 3 floats per gate";
  let geom = Library.die_geometry lib sigmas in
  let plan = Library.plan lib sigmas in
  let sets = plan.Vth_moments.sets and quads = plan.Vth_moments.quads in
  (* Everything per class — its canonical member order, its weights and
     its weight-independent integrals under each sigma set — depends on
     that class alone: one pool item per class, each lane writing its own
     slot. The integrals depend on the class's tables and the sigma pair
     alone, so the library computes them once and hands them back on every
     later call. Cross-class sums run afterwards, sequentially, in class
     order. *)
  let classes =
    let members = class_members entries in
    Pool.map ?pool (Array.length members) (fun k ->
        let g = group_of_members ~entries ~loaded ~isolated members.(k) in
        (g, Library.class_integrals lib plan g.k_tabs))
  in
  Array.stable_sort (fun (g1, _) (g2, _) -> cmp_group g1 g2) classes;
  let groups = Array.map fst classes in
  if Tm.enabled () then begin
    Tm.incr m_passes;
    Tm.add m_classes (Array.length groups)
  end;
  (* Linearization-error bound. Geometry axes: the measured model-vs-truth
     residual at ±2σ — these axes really are propagated through a quadratic
     log model, so a residual above tolerance flags the component for the
     MC fallback. Threshold axis: integrated exactly against the sampler's
     own table, so it never flags a component; instead, gates whose table
     departs from its first-order line λ·δ by more than the tolerance at a
     ±2σ_dv displacement are counted, marking where the reported λ alone
     would mislead. *)
  let sdv =
    sqrt
      ((sigmas.Variation.sigma_vth_inter *. sigmas.Variation.sigma_vth_inter)
       +. (sigmas.Variation.sigma_vth_intra *. sigmas.Variation.sigma_vth_intra))
  in
  let flags = Array.map (fun e -> e > lin_tol) geom.Die_geometry.g_lin_err in
  let flagged_gates = ref 0 in
  Array.iter
    (fun g ->
      let dev = ref 0.0 in
      for c = 0 to 2 do
        let t = g.k_tabs.(c) and lam = g.k_lam.(c) in
        let at d = Float.abs (Vth_moments.eval_tab t d -. (lam *. d)) in
        dev :=
          Float.max !dev
            (Float.max (at (2.0 *. sdv)) (at (-2.0 *. sdv)))
      done;
      if !dev > lin_tol then flagged_gates := !flagged_gates + g.k_count)
    groups;
  let stats_of =
    column_stats ~groups ~geom ~sets ~quads ~ints:(Array.map snd classes)
  in
  let loaded = stats_of ~base:false in
  let baseline = stats_of ~base:true in
  (* A diverging quadratic geometry moment (b·σ² ≥ 1) surfaces as infinity:
     flag the component rather than report it. *)
  let non_finite (s : stats) =
    [|
      not (Float.is_finite s.s_isub.sigma && Float.is_finite s.s_isub.mean);
      not (Float.is_finite s.s_igate.sigma && Float.is_finite s.s_igate.mean);
      not (Float.is_finite s.s_ibtbt.sigma && Float.is_finite s.s_ibtbt.mean);
    |]
  in
  let nf = non_finite loaded and nfb = non_finite baseline in
  for c = 0 to 2 do
    if nf.(c) || nfb.(c) then flags.(c) <- true
  done;
  {
    loaded;
    baseline;
    flagged_isub = flags.(0);
    flagged_igate = flags.(1);
    flagged_ibtbt = flags.(2);
    flagged_gates = !flagged_gates;
    groups = Array.length groups;
  }

(* -------------------------------------------------------- MC fallback *)

let sample_stats values =
  let module Stats = Leakage_numeric.Stats in
  (Stats.mean values, Stats.std values)

let mc_stats ~n_samples ~seed ~sigmas lib netlist pattern =
  let run sg = Statistical.run ~n_samples ~seed ~sigmas:sg lib netlist pattern in
  let full = run sigmas in
  let inter = run (Variation.inter_only sigmas) in
  let intra = run (Variation.intra_only sigmas) in
  let column base =
    let pick f (s : Statistical.sample_totals) =
      if base then f s.Statistical.no_loading else f s.Statistical.with_loading
    in
    let comp f =
      let mean, sigma = sample_stats (Array.map (pick f) full.Statistical.samples) in
      let _, si = sample_stats (Array.map (pick f) inter.Statistical.samples) in
      let _, sy = sample_stats (Array.map (pick f) intra.Statistical.samples) in
      { mean; sigma; sigma_inter = si; sigma_intra = sy; from_mc = true }
    in
    {
      s_isub = comp (fun c -> c.Report.isub);
      s_igate = comp (fun c -> c.Report.igate);
      s_ibtbt = comp (fun c -> c.Report.ibtbt);
      s_total = comp Report.total;
    }
  in
  (column false, column true)

let merge_fallback res ~(mc_loaded : stats) ~(mc_baseline : stats) =
  let pick flag analytic mc = if flag then mc else analytic in
  let merge (a : stats) (m : stats) =
    {
      s_isub = pick res.flagged_isub a.s_isub m.s_isub;
      s_igate = pick res.flagged_igate a.s_igate m.s_igate;
      s_ibtbt = pick res.flagged_ibtbt a.s_ibtbt m.s_ibtbt;
      (* totals need the cross-component covariances; once any component
         comes from samples, take the total column from the same samples *)
      s_total = m.s_total;
    }
  in
  {
    res with
    loaded = merge res.loaded mc_loaded;
    baseline = merge res.baseline mc_baseline;
  }

(* ------------------------------------------------------- entry points *)

let estimate_totals ?passes ?pool ?lin_tol ?(fallback_samples = 2000)
    ?(fallback_seed = 9001) ~sigmas lib netlist pattern =
  let n = Netlist.gate_count netlist in
  let loaded = Array.make (3 * n) 0.0 in
  let isolated = Array.make (3 * n) 0.0 in
  (* the fold's accumulator is the entry array, made on the first gate *)
  let entries, totals, baseline_totals =
    Estimator.estimate_fold ?passes ~init:[||]
      ~f:(fun entries g e ~loaded:l ->
        let entries = if g = 0 then Array.make n e else entries in
        entries.(g) <- e;
        let o = 3 * g and iso = e.Characterize.nominal_isolated in
        loaded.(o) <- l.(0);
        loaded.(o + 1) <- l.(1);
        loaded.(o + 2) <- l.(2);
        isolated.(o) <- iso.Report.isub;
        isolated.(o + 1) <- iso.Report.igate;
        isolated.(o + 2) <- iso.Report.ibtbt;
        entries)
      lib netlist pattern
  in
  let res =
    analyze ?pool ?lin_tol ~sigmas lib ~entries ~loaded ~isolated
  in
  let res =
    if flagged res && fallback_samples > 0 then begin
      if Tm.enabled () then Tm.incr m_fallbacks;
      let mc_loaded, mc_baseline =
        mc_stats ~n_samples:fallback_samples ~seed:fallback_seed ~sigmas lib
          netlist pattern
      in
      merge_fallback res ~mc_loaded ~mc_baseline
    end
    else res
  in
  (totals, baseline_totals, res)
