(* SplitMix64 (Steele, Lea, Flood; JDK8 SplittableRandom). Chosen because it
   is trivially correct to implement, passes BigCrush, and supports cheap
   stream splitting for per-sample reproducibility. *)

type t = {
  mutable state : int64;
  mutable cached_gaussian : float option;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  { state = Int64.of_int seed; cached_gaussian = None }

let copy t = { state = t.state; cached_gaussian = t.cached_gaussian }

let next_seed t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = mix64 (next_seed t)

let split t =
  let s = bits64 t in
  { state = mix64 s; cached_gaussian = None }

(* 53 uniformly distributed mantissa bits in [0,1). *)
let uniform t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for any bound
     that fits an OCaml int, far below Monte-Carlo noise. Keep 62 bits so the
     value stays non-negative in OCaml's 63-bit native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t =
  match t.cached_gaussian with
  | Some g ->
    t.cached_gaussian <- None;
    g
  | None ->
    (* Box-Muller on two fresh uniforms; guard against log 0. *)
    let rec draw () =
      let u1 = uniform t in
      if u1 <= 1e-300 then draw () else u1
    in
    let u1 = draw () and u2 = uniform t in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.cached_gaussian <- Some (r *. sin theta);
    r *. cos theta

let normal t ~mean ~sigma = mean +. sigma *. gaussian t

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
