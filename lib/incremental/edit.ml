module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Rng = Leakage_numeric.Rng

type t =
  | Resize of int * float
  | Retype of int * Gate.kind
  | Relib of int * Leakage_core.Library.t
  | Set_input of Netlist.net * bool

let pp ppf = function
  | Resize (g, s) -> Format.fprintf ppf "resize g%d -> %.2fx" g s
  | Retype (g, k) -> Format.fprintf ppf "retype g%d -> %s" g (Gate.name k)
  | Relib (g, _) -> Format.fprintf ppf "relib g%d" g
  | Set_input (n, b) ->
    Format.fprintf ppf "set net%d <- %c" n (if b then '1' else '0')

let default_strengths = [| 0.5; 0.75; 1.0; 1.25; 1.5; 2.0 |]

let random_resize ?(strengths = default_strengths) rng netlist =
  if Array.length strengths = 0 then
    invalid_arg "Edit.random_resize: empty strength palette";
  let g = Rng.int rng (Netlist.gate_count netlist) in
  Resize (g, Rng.pick rng strengths)

let random_set_input rng netlist =
  let pi = Rng.pick rng (Netlist.inputs netlist) in
  Set_input (pi, Rng.bool rng)
