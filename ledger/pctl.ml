(* Order statistics for the ledger's timings.

   A timing is reported as its median plus the highest percentile that
   still has at least ten samples beyond it, together with the sample
   count; with fewer samples a high percentile is a single outlier, not a
   distribution. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pctl.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* Candidate percentiles in per-mille, highest first; per-mille keeps the
   "samples beyond" test in integers (1000 * (1 - 0.99) is not 10.0). *)
let ladder = [ 999; 990; 900; 500 ]

type tail = { permille : int; value : float; samples : int }

let tail xs =
  let n = List.length xs in
  match List.find_opt (fun pm -> n * (1000 - pm) >= 10_000) ladder with
  | None -> None
  | Some pm ->
    Some
      {
        permille = pm;
        value = quantile xs (float_of_int pm /. 1000.0);
        samples = n;
      }

let tail_label t =
  if t.permille mod 10 = 0 then Printf.sprintf "p%d" (t.permille / 10)
  else Printf.sprintf "p%d.%d" (t.permille / 10) (t.permille mod 10)

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
