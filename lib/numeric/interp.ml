type grid1d = { xs : float array; ys : float array }

let check_axis name xs =
  if Array.length xs < 2 then invalid_arg (name ^ ": need at least 2 points");
  for i = 0 to Array.length xs - 2 do
    if xs.(i + 1) <= xs.(i) then
      invalid_arg (name ^ ": axis must be strictly increasing")
  done

let grid1d ~xs ~ys =
  check_axis "Interp.grid1d" xs;
  if Array.length xs <> Array.length ys then
    invalid_arg "Interp.grid1d: xs/ys length mismatch";
  { xs = Array.copy xs; ys = Array.copy ys }

(* Index i such that xs.(i) <= x < xs.(i+1), clamped to valid segments. *)
let segment xs x =
  let n = Array.length xs in
  if x <= xs.(0) then 0
  else if x >= xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let eval1d g x =
  (* A NaN coordinate fails every segment comparison and would silently
     interpolate garbage. *)
  if Float.is_nan x then invalid_arg "Interp.eval1d: NaN coordinate";
  let n = Array.length g.xs in
  if x <= g.xs.(0) then g.ys.(0)
  else if x >= g.xs.(n - 1) then g.ys.(n - 1)
  else begin
    let i = segment g.xs x in
    let t = (x -. g.xs.(i)) /. (g.xs.(i + 1) -. g.xs.(i)) in
    (g.ys.(i) *. (1.0 -. t)) +. (g.ys.(i + 1) *. t)
  end

let linspace lo hi n =
  if n < 2 then invalid_arg "Interp.linspace: need n >= 2";
  let step = (hi -. lo) /. float_of_int (n - 1) in
  Array.init n (fun i ->
      if i = n - 1 then hi else lo +. (float_of_int i *. step))
