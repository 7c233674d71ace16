let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty array")

let mean a =
  check_nonempty "Stats.mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) ** 2.0)) 0.0 a in
    acc /. float_of_int (n - 1)
  end

let std a = sqrt (variance a)

(* Chebyshev-fitted erfc (Numerical Recipes "erfcc"): fractional error below
   1.2e-7 on all of [0, inf). Written as t·e^{-ax² + P(t)}, so the error in
   the fitted exponent stays a *relative* error on the value arbitrarily
   deep into the tail — exactly what the analytic moment engine needs when
   differencing Gaussian segment masses — at the cost of a single exp and
   division, which keeps it viable on that engine's hot quadrature path.
   [erfc_parts ax] exposes (t, exponent) so log-space callers skip the exp
   and never underflow. *)
let erfc_parts ax =
  let t = 1.0 /. (1.0 +. (0.5 *. ax)) in
  let p = 0.17087277 in
  let p = -0.82215223 +. (t *. p) in
  let p = 1.48851587 +. (t *. p) in
  let p = -1.13520398 +. (t *. p) in
  let p = 0.27886807 +. (t *. p) in
  let p = -0.18628806 +. (t *. p) in
  let p = 0.09678418 +. (t *. p) in
  let p = 0.37409196 +. (t *. p) in
  let p = 1.00002368 +. (t *. p) in
  (t, -.(ax *. ax) -. 1.26551223 +. (t *. p))

let erfc_core ax =
  let t, e = erfc_parts ax in
  t *. exp e

let inv_sqrt2 = 1.0 /. sqrt 2.0

(* Phi(z) for z <= 0, relatively accurate all the way down (the erfc fit
   carries fractional accuracy into the tail). *)
let lower_cdf z = 0.5 *. erfc_core (-.z *. inv_sqrt2)

let norm_cdf z = if z > 0.0 then 1.0 -. lower_cdf (-.z) else lower_cdf z

let log_norm_cdf z =
  if z > 0.0 then log1p (-.lower_cdf (-.z))
  else
    let t, e = erfc_parts (-.z *. inv_sqrt2) in
    e +. log (0.5 *. t)

let min_max a =
  check_nonempty "Stats.min_max" a;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (a.(0), a.(0)) a

let percentile a p =
  check_nonempty "Stats.percentile" a;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = Stdlib.min (int_of_float rank) (n - 2) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(lo + 1) *. frac)
  end

let median a = percentile a 50.0

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  p05 : float;
  p50 : float;
  p95 : float;
}

let summarize a =
  check_nonempty "Stats.summarize" a;
  let lo, hi = min_max a in
  {
    n = Array.length a;
    mean = mean a;
    std = std a;
    min = lo;
    max = hi;
    p05 = percentile a 5.0;
    p50 = median a;
    p95 = percentile a 95.0;
  }

type histogram = {
  lo : float;
  hi : float;
  counts : int array;
}

let histogram_in ~lo ~hi ~bins a =
  if bins <= 0 then invalid_arg "Stats.histogram_in: bins must be positive";
  if not (hi > lo) then invalid_arg "Stats.histogram_in: hi must exceed lo";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let clamp_bin i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
  Array.iter
    (fun x ->
      let i = clamp_bin (int_of_float ((x -. lo) /. width)) in
      counts.(i) <- counts.(i) + 1)
    a;
  { lo; hi; counts }

let histogram ?(bins = 40) a =
  check_nonempty "Stats.histogram" a;
  let lo, hi = min_max a in
  (* Degenerate samples still get a well-formed (single-spike) histogram. *)
  let hi = if hi > lo then hi else lo +. 1.0 in
  histogram_in ~lo ~hi ~bins a

let bin_centers h =
  let bins = Array.length h.counts in
  let width = (h.hi -. h.lo) /. float_of_int bins in
  Array.init bins (fun i -> h.lo +. ((float_of_int i +. 0.5) *. width))
