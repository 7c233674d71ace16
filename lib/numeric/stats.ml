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
