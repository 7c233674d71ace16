(* SplitMix64 (Steele, Lea, Flood; JDK8 SplittableRandom). Chosen because it
   is trivially correct to implement, passes BigCrush, and supports cheap
   stream splitting for per-sample reproducibility. *)

(* The 64-bit state lives in a byte buffer and Box–Muller's spare value
   in a float array, so drawing boxes nothing: the int64 arithmetic and
   the floats stay unboxed inside the inlined helpers below. *)
type t = {
  state : Bytes.t;          (* 8 bytes, native endian *)
  spare : float array;      (* 1: the pair's second value, if [has_spare] *)
  mutable has_spare : bool;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 s;
  { state; spare = [| 0.0 |]; has_spare = false }

let create seed = of_state (Int64.of_int seed)

let copy t =
  { state = Bytes.copy t.state; spare = Array.copy t.spare;
    has_spare = t.has_spare }

let[@inline] next_seed t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 s;
  s

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t = mix64 (next_seed t)

let bits64 t = next t

let split t = of_state (mix64 (next t))

(* 53 uniformly distributed mantissa bits in [0,1). *)
let[@inline] next_uniform t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t = next_uniform t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for any bound
     that fits an OCaml int, far below Monte-Carlo noise. Keep 62 bits so the
     value stays non-negative in OCaml's 63-bit native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bool t = Int64.logand (next t) 1L = 1L

(* Box-Muller on two fresh uniforms (guarding against log 0): the cosine
   value now, the sine value on the next call. *)
let[@inline] next_gaussian t =
  if t.has_spare then begin
    t.has_spare <- false;
    t.spare.(0)
  end
  else begin
    let u1 = ref (next_uniform t) in
    while !u1 <= 1e-300 do
      u1 := next_uniform t
    done;
    let u2 = next_uniform t in
    let r = sqrt (-2.0 *. log !u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.spare.(0) <- r *. sin theta;
    t.has_spare <- true;
    r *. cos theta
  end

let gaussian t = next_gaussian t

let gaussian_into t dst k = dst.(k) <- next_gaussian t

let normal t ~mean ~sigma = mean +. sigma *. next_gaussian t

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
