let q = 1.602176634e-19
let boltzmann = 1.380649e-23

let thermal_voltage t =
  if t <= 0.0 then invalid_arg "Physics.thermal_voltage: non-positive T";
  boltzmann *. t /. q

(* Varshni parameters for silicon: Eg(0) = 1.17 eV, a = 4.73e-4, b = 636. *)
let bandgap t =
  1.17 -. (4.73e-4 *. t *. t /. (t +. 636.0))

let celsius_to_kelvin c = c +. 273.15
let kelvin_to_celsius k = k -. 273.15

let nano = 1e-9
let amps_to_nanoamps a = a /. nano
