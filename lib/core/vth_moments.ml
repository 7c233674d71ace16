(* Exact Gaussian moments of the clamped piecewise-linear threshold tables:
   the weight-independent threshold-axis integrals of one response class
   of the analytic σ pass ([Sensitivity]), and the key a library memoizes
   them under ([Library.class_integrals]).

   A class's integrals depend on its three threshold log-response tables
   and on the (σ_vth_inter, σ_vth_intra) pair alone — never on how many
   gates share the class or what they weigh — so one library computes
   them once per class and sigma pair and every later analysis reads them
   back. The key compares the tables' nodes and the pair bit for bit: a hit
   means bit-identical inputs, hence bit-identical integrals. *)

module Variation = Leakage_device.Variation
module Tm = Leakage_telemetry.Telemetry

let m_table_integrals = Tm.counter "sensitivity.table_integrals"

(* One clamped piecewise-linear log-response: the node arrays of an
   [Interp.grid1d], constant beyond either end — the exact function
   [Interp.eval1d] (and hence the MC sampler) evaluates. *)
type tab = { t_xs : float array; t_ys : float array }

let cmp_fa a b =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c = Float.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* ------------------------------------------ exact clamped-table moments *)

(* Standard normal CDF through a Chebyshev-fitted erfc (Numerical Recipes
   "erfcc"): fractional error below 1.2e-7 on all of [0, inf). Written as
   t·e^{-ax² + P(t)}, so the error in the fitted exponent stays a
   *relative* error on the value arbitrarily deep into the tail — exactly
   what differencing Gaussian segment masses needs — at the cost of one exp
   and one division. Every helper is inlined into [expect_exp_tab_into], so no
   float is boxed on the way. *)
let[@inline] erfc_t ax = 1.0 /. (1.0 +. (0.5 *. ax))

(* the exponent -ax² + P(t) *)
let[@inline] erfc_expo ax t =
  let p = 0.17087277 in
  let p = -0.82215223 +. (t *. p) in
  let p = 1.48851587 +. (t *. p) in
  let p = -1.13520398 +. (t *. p) in
  let p = 0.27886807 +. (t *. p) in
  let p = -0.18628806 +. (t *. p) in
  let p = 0.09678418 +. (t *. p) in
  let p = 0.37409196 +. (t *. p) in
  let p = 1.00002368 +. (t *. p) in
  -.(ax *. ax) -. 1.26551223 +. (t *. p)

let inv_sqrt2 = 1.0 /. sqrt 2.0

(* Φ(z) for z <= 0, relatively accurate all the way down *)
let[@inline] lower_cdf z =
  let ax = -.z *. inv_sqrt2 in
  let t = erfc_t ax in
  0.5 *. (t *. exp (erfc_expo ax t))

let[@inline] norm_cdf z = if z > 0.0 then 1.0 -. lower_cdf (-.z) else lower_cdf z

(* log Φ(z), never -infinity for finite z: the deep tail evaluates the
   fitted exponent directly. *)
let[@inline] log_norm_cdf z =
  if z > 0.0 then log1p (-.lower_cdf (-.z))
  else
    let ax = -.z *. inv_sqrt2 in
    let t = erfc_t ax in
    erfc_expo ax t +. log (0.5 *. t)

(* Clamped piecewise-linear eval — same value as [Interp.eval1d]. *)
let[@inline] eval_tab { t_xs = xs; t_ys = ys } x =
  let n = Array.length xs in
  if x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    let i = ref 0 in
    while xs.(!i + 1) < x do incr i done;
    let t = (x -. xs.(!i)) /. (xs.(!i + 1) -. xs.(!i)) in
    (ys.(!i) *. (1.0 -. t)) +. (ys.(!i + 1) *. t)
  end

(* One segment whose window [za, zb], 0 <= za < zb, lies on one side of
   the shifted mean, with prefactor e^expo. *)
let[@inline] one_sided ~expo za zb =
  if expo <= 600.0 then exp expo *. (norm_cdf (-.za) -. norm_cdf (-.zb))
  else begin
    let la = log_norm_cdf (-.za) and lb = log_norm_cdf (-.zb) in
    exp (expo +. la +. log1p (-.exp (lb -. la)))
  end

(* E[exp(T(v))] for v ~ N(mu, s²) at every mean [mu] of [mus], into [dst];
   T is the clamped piecewise-linear table. Exact, segment by segment: on
   [x0, x1] with T = α + βv,
   ∫ e^{α+βv} φ(v) dv = e^{α+βμ+β²s²/2} (Φ((x1−μ−βs²)/s) − Φ((x0−μ−βs²)/s)),
   and the clamped tails are constants times Gaussian tail masses. Always
   finite — the table caps the exponent — which is what makes steep-slope
   outlier entries integrable where a lognormal λ model diverges.

   Segments whose slope-shifted window [z0, z1] lies entirely on one side
   of the shifted mean flip their Φ difference onto the lower tail, where
   [norm_cdf] keeps relative accuracy arbitrarily far out — in the
   raw orientation the e^{β²s²/2} prefactor can be astronomically large
   while the Φ values agree to sub-ulp, and the difference would cancel
   to garbage even though the segment's true contribution, their product,
   is bounded by e^{max ys}. When the prefactor itself would overflow a
   double (pathologically steep tables only — the flip keeps the tail
   values, whose underflow meets the overflow, out of the product until
   then) the same term is assembled in log space via [log_norm_cdf].
   Straddling windows have no amplified prefactor (the exponent equals T
   at the interior mode minus β²s²/2) and use the plain CDF difference.
   Each segment's slope terms depend on the table and s alone, so one call
   serves every quadrature node. *)
let expect_exp_tab_into ({ t_xs = xs; t_ys = ys } as tab) ~s mus dst =
  let n = Array.length xs in
  if Tm.enabled () then Tm.add m_table_integrals (Array.length mus);
  if n = 0 then Array.fill dst 0 (Array.length mus) 1.0
  else if s <= 0.0 then
    Array.iteri (fun k mu -> dst.(k) <- exp (eval_tab tab mu)) mus
  else begin
    (* per segment, independent of μ: β, α, βs² and β²s²/2 *)
    let seg = Array.make (4 * (n - 1)) 0.0 in
    for i = 0 to n - 2 do
      let x0 = xs.(i) and x1 = xs.(i + 1) in
      if x1 > x0 then begin
        let beta = (ys.(i + 1) -. ys.(i)) /. (x1 -. x0) in
        seg.(4 * i) <- beta;
        seg.((4 * i) + 1) <- ys.(i) -. (beta *. x0);
        seg.((4 * i) + 2) <- beta *. s *. s;
        seg.((4 * i) + 3) <- 0.5 *. beta *. beta *. s *. s
      end
    done;
    let lo = exp ys.(0) and hi = exp ys.(n - 1) in
    for k = 0 to Array.length mus - 1 do
      let mu = mus.(k) in
      let acc = ref (lo *. norm_cdf ((xs.(0) -. mu) /. s)) in
      for i = 0 to n - 2 do
        let x0 = xs.(i) and x1 = xs.(i + 1) in
        if x1 > x0 then begin
          let beta = seg.(4 * i) in
          let m = mu +. seg.((4 * i) + 2) in
          let z0 = (x0 -. m) /. s and z1 = (x1 -. m) /. s in
          let expo = seg.((4 * i) + 1) +. (beta *. mu) +. seg.((4 * i) + 3) in
          let term =
            if z0 >= 0.0 then one_sided ~expo z0 z1
            else if z1 <= 0.0 then one_sided ~expo (-.z1) (-.z0)
            else exp expo *. (norm_cdf z1 -. norm_cdf z0)
          in
          acc := !acc +. term
        end
      done;
      dst.(k) <- !acc +. (hi *. norm_cdf ((mu -. xs.(n - 1)) /. s))
    done
  end

let expect_exp_tab tab ~mu ~s =
  let r = [| 0.0 |] in
  expect_exp_tab_into tab ~s [| mu |] r;
  r.(0)

(* Sum of two clamped piecewise-linear tables, exact on the union grid
   (clamped-constant pieces are linear too, so the union of breakpoints
   carries the sum without loss). Tables from one characterization entry
   share their grid, which is the fast path. *)
let sum_tab t1 t2 =
  if t1.t_xs == t2.t_xs || cmp_fa t1.t_xs t2.t_xs = 0 then
    { t_xs = t1.t_xs; t_ys = Array.map2 ( +. ) t1.t_ys t2.t_ys }
  else begin
    let union = Array.append t1.t_xs t2.t_xs in
    Array.sort Float.compare union;
    let dedup = ref [] in
    Array.iter
      (fun x ->
        match !dedup with
        | x' :: _ when x' = x -> ()
        | _ -> dedup := x :: !dedup)
      union;
    let xs = Array.of_list (List.rev !dedup) in
    { t_xs = xs; t_ys = Array.map (fun x -> eval_tab t1 x +. eval_tab t2 x) xs }
  end

(* Quadrature over the shared die shift x. [n_full] nodes integrate the
   σy-smoothed conditional factors (smooth everywhere); [n_inter] denser
   nodes handle the σy = 0 regime, where the integrand keeps the raw
   table's kinks (composite Simpson loses one order at a kink but the
   per-kink error is O(h³) — far below the MC-differential gates). Fixed
   constants: the node grid depends only on the sigma set, so the assembly
   is a function of the gates' multiset alone. *)
let n_full = 65
let n_inter = 129
let x_span = 8.0

let two_pi = 8.0 *. atan 1.0

(* Outer quadrature for one (σx = inter, σy = intra) pair: Simpson nodes
   and Gaussian-weighted weights over the shared die shift, or [None] when
   σx = 0 and the gates decouple. *)
type quad = { nodes : float array; wphi : float array }

let quad_of (sigmas : Variation.sigmas) =
  let sx = sigmas.Variation.sigma_vth_inter
  and sy = sigmas.Variation.sigma_vth_intra in
  if sx <= 0.0 then None
  else begin
    let n = if sy <= 0.0 then n_inter else n_full in
    let h = 2.0 *. x_span *. sx /. float_of_int (n - 1) in
    let nodes = Array.init n (fun i -> (-.x_span *. sx) +. (h *. float_of_int i)) in
    let wphi =
      Array.init n (fun i ->
          let simp =
            if i = 0 || i = n - 1 then 1.0
            else if i mod 2 = 1 then 4.0
            else 2.0
          in
          let x = nodes.(i) in
          simp *. h /. 3.0
          *. exp (-.(x *. x) /. (2.0 *. sx *. sx))
          /. (sx *. sqrt two_pi))
    in
    Some { nodes; wphi }
  end

(* One class's weight-independent threshold-axis integrals under one sigma
   set: they depend on the class's tables alone. *)
type integrals = {
  m1 : float array;       (* 3: exact mean factors at the combined spread *)
  shared : float array;   (* 9: exact same-gate shared-y E[e^{(l_c+l_d)(v)}] *)
  f : float array array;  (* 3 × nodes: E_y[e^{l(x_i+y)}]; [||] if no quad *)
  sh_indep : float array; (* 9: independent-y same-gate products; [||]
                             unless both spreads are live *)
}

let integrals_of (sigmas : Variation.sigmas) quad (tabs : tab array) =
  let sx = sigmas.Variation.sigma_vth_inter
  and sy = sigmas.Variation.sigma_vth_intra in
  let s_all = sqrt ((sx *. sx) +. (sy *. sy)) in
  let m1 = Array.init 3 (fun c -> expect_exp_tab tabs.(c) ~mu:0.0 ~s:s_all) in
  let shared = Array.make 9 0.0 in
  for c = 0 to 2 do
    for d = c to 2 do
      let v = expect_exp_tab (sum_tab tabs.(c) tabs.(d)) ~mu:0.0 ~s:s_all in
      shared.((c * 3) + d) <- v;
      shared.((d * 3) + c) <- v
    done
  done;
  match quad with
  | None -> { m1; shared; f = [||]; sh_indep = [||] }
  | Some { nodes; wphi } ->
    let n = Array.length nodes in
    let f =
      Array.init 3 (fun c ->
          let tab = tabs.(c) in
          let fc = Array.make n 0.0 in
          if sy <= 0.0 then
            for i = 0 to n - 1 do
              fc.(i) <- exp (eval_tab tab nodes.(i))
            done
          else expect_exp_tab_into tab ~s:sy nodes fc;
          fc)
    in
    (* independent-y same-gate products under the same quadrature, so the
       B correction cancels exactly what the cross sum counted *)
    let sh_indep =
      if sy <= 0.0 then [||]
      else begin
        let m = Array.make 9 0.0 in
        for c = 0 to 2 do
          for d = c to 2 do
            let fc = f.(c) and fd = f.(d) in
            let acc = ref 0.0 in
            for i = 0 to n - 1 do
              acc := !acc +. (wphi.(i) *. fc.(i) *. fd.(i))
            done;
            m.((c * 3) + d) <- !acc;
            m.((d * 3) + c) <- !acc
          done
        done;
        m
      end
    in
    { m1; shared; f; sh_indep }

(* ------------------------------------------------------------ the memo *)

(* One sigma pair's three sigma sets — full, inter-only, intra-only — and
   their outer quadratures: what every class's integrals are taken under. *)
type plan = { sets : Variation.sigmas array; quads : quad option array }

let plan ?quads sigmas =
  let sets =
    [| sigmas; Variation.inter_only sigmas; Variation.intra_only sigmas |]
  in
  match quads with
  | Some quads -> { sets; quads }
  | None -> { sets; quads = Array.map quad_of sets }

let class_integrals plan tabs =
  Array.mapi (fun i s -> integrals_of s plan.quads.(i) tabs) plan.sets

(* Node values as [Float.compare] sees them (±0.0 one value, all NaNs
   one), FNV-mixed: values equal bit for bit, or under [Float.compare],
   mix to one hash. *)
let[@inline] mix1 h y =
  let bits =
    if y = 0.0 then 0
    else if y <> y then 1
    else Int64.to_int (Int64.bits_of_float y)
  in
  (h lxor bits) * 0x100000001b3

let mix h ys =
  let h = ref h in
  for i = 0 to Array.length ys - 1 do
    h := mix1 !h ys.(i)
  done;
  !h

type key = { k_inter : float; k_intra : float; k_tabs : tab array }

(* The sets' integrals read only the pair's threshold spreads. *)
let key plan tabs =
  let s = plan.sets.(0) in
  {
    k_inter = s.Variation.sigma_vth_inter;
    k_intra = s.Variation.sigma_vth_intra;
    k_tabs = tabs;
  }

let[@inline] same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

let same_nodes a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i = n || (same_bits a.(i) b.(i) && go (i + 1)) in
  go 0

module Memo = Hashtbl.Make (struct
  type t = key

  let equal a b =
    same_bits a.k_inter b.k_inter
    && same_bits a.k_intra b.k_intra
    && Array.length a.k_tabs = Array.length b.k_tabs
    &&
    let rec go i =
      i = Array.length a.k_tabs
      || same_nodes a.k_tabs.(i).t_xs b.k_tabs.(i).t_xs
         && same_nodes a.k_tabs.(i).t_ys b.k_tabs.(i).t_ys
         && go (i + 1)
    in
    go 0

  (* the table values only: every table shares its axis *)
  let hash k =
    Array.fold_left
      (fun h t -> mix h t.t_ys)
      (mix1 (mix1 0 k.k_inter) k.k_intra)
      k.k_tabs
    land max_int
end)

let expect_exp_table ~xs ~ys ~mu ~s =
  expect_exp_tab { t_xs = xs; t_ys = ys } ~mu ~s
