type matrix = float array array

exception Singular

let dims a =
  let n = Array.length a in
  if n = 0 then (0, 0) else (n, Array.length a.(0))

let copy_matrix a = Array.map Array.copy a

let mat_vec a x =
  Array.map
    (fun row ->
      let acc = ref 0.0 in
      Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
      !acc)
    a

(* LU factorization with partial pivoting, in place on a copy.
   Returns (lu, perm) where perm.(i) is the source row of row i. *)
let lu_factor a =
  let n, m = dims a in
  if n <> m then invalid_arg "Linalg.lu_factor: square matrix required";
  let lu = copy_matrix a in
  let perm = Array.init n (fun i -> i) in
  for col = 0 to n - 1 do
    (* pivot search *)
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if abs_float lu.(r).(col) > abs_float lu.(!pivot).(col) then pivot := r
    done;
    if abs_float lu.(!pivot).(col) < 1e-300 then raise Singular;
    if !pivot <> col then begin
      let tmp = lu.(col) in
      lu.(col) <- lu.(!pivot);
      lu.(!pivot) <- tmp;
      let tp = perm.(col) in
      perm.(col) <- perm.(!pivot);
      perm.(!pivot) <- tp
    end;
    let inv_pivot = 1.0 /. lu.(col).(col) in
    for r = col + 1 to n - 1 do
      let factor = lu.(r).(col) *. inv_pivot in
      lu.(r).(col) <- factor;
      if factor <> 0.0 then
        for c = col + 1 to n - 1 do
          lu.(r).(c) <- lu.(r).(c) -. (factor *. lu.(col).(c))
        done
    done
  done;
  (lu, perm)

let lu_apply (lu, perm) b =
  let n = Array.length perm in
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* forward substitution (unit lower triangle) *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- x.(i) /. lu.(i).(i)
  done;
  x

let lu_solve a b =
  let n, _ = dims a in
  if Array.length b <> n then invalid_arg "Linalg.lu_solve: size mismatch";
  lu_apply (lu_factor a) b

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (abs_float v)) 0.0 x
