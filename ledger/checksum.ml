(* Order-fixed checksum over a workload's numeric results: 64-bit FNV-1a
   over the exact bit patterns, folded in a fixed order. Two runs on the
   same inputs must produce the same value; any changed bit or reordered
   result changes it. *)

type t = int64

let empty : t = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let add_int64 h x =
  let h = ref h in
  for byte = 0 to 7 do
    let b = Int64.logand (Int64.shift_right_logical x (8 * byte)) 0xffL in
    h := Int64.mul (Int64.logxor !h b) prime
  done;
  !h

let add_float h f = add_int64 h (Int64.bits_of_float f)
let add_int h i = add_int64 h (Int64.of_int i)

let add_string h s =
  let h = ref (add_int h (String.length s)) in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let add_floats h fs = List.fold_left add_float h fs
let to_hex (h : t) = Printf.sprintf "%016Lx" h
