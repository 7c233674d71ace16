(** Physical constants and temperature-dependent silicon quantities. *)

val thermal_voltage : float -> float
(** [thermal_voltage t] is kT/q in volts for temperature [t] in Kelvin. *)

val bandgap : float -> float
(** Silicon bandgap in eV at temperature [t] (Varshni fit). *)

val celsius_to_kelvin : float -> float
val kelvin_to_celsius : float -> float

val amps_to_nanoamps : float -> float
