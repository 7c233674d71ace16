exception Singular

let mat_vec ~n a x =
  Array.init n (fun i ->
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (a.((i * n) + j) *. x.(j))
      done;
      !acc)

(* LU with partial pivoting over row indices: logical row [r] lives at
   physical row [perm.(r)], so a pivot swap exchanges two indices. The
   pivot choice (strictly larger magnitude wins, the first row on ties),
   the reciprocal pivot, the skipped zero factors and the substitution
   order are those of a row-swapping LU, operation for operation. *)
let lu_solve_in_place ~n a perm b x =
  if
    Array.length a < n * n || Array.length perm < n || Array.length b < n
    || Array.length x < n
  then invalid_arg "Linalg.lu_solve_in_place: array shorter than n";
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if abs_float a.((perm.(r) * n) + col)
         > abs_float a.((perm.(!pivot) * n) + col)
      then pivot := r
    done;
    if abs_float a.((perm.(!pivot) * n) + col) < 1e-300 then raise Singular;
    if !pivot <> col then begin
      let tp = perm.(col) in
      perm.(col) <- perm.(!pivot);
      perm.(!pivot) <- tp
    end;
    let prow = perm.(col) * n in
    let inv_pivot = 1.0 /. a.(prow + col) in
    for r = col + 1 to n - 1 do
      let row = perm.(r) * n in
      let factor = a.(row + col) *. inv_pivot in
      a.(row + col) <- factor;
      if factor <> 0.0 then
        for c = col + 1 to n - 1 do
          a.(row + c) <- a.(row + c) -. (factor *. a.(prow + c))
        done
    done
  done;
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* forward substitution (unit lower triangle) *)
  for i = 1 to n - 1 do
    let row = perm.(i) * n in
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (a.(row + j) *. x.(j))
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let row = perm.(i) * n in
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (a.(row + j) *. x.(j))
    done;
    x.(i) <- x.(i) /. a.(row + i)
  done

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (abs_float v)) 0.0 x
