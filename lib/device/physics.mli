(** Physical constants and temperature-dependent silicon quantities. *)

val q : float
(** Elementary charge, C. *)

val boltzmann : float
(** Boltzmann constant, J/K. *)

val thermal_voltage : float -> float
(** [thermal_voltage t] is kT/q in volts for temperature [t] in Kelvin. *)

val bandgap : float -> float
(** Silicon bandgap in eV at temperature [t] (Varshni fit). *)

val celsius_to_kelvin : float -> float
val kelvin_to_celsius : float -> float

val nano : float
(** 1e-9: converts amperes to nano-amperes when dividing. *)

val amps_to_nanoamps : float -> float
val nanoamps_to_amps : float -> float
