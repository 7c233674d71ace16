(** Table interpolation used by the gate characterization layer.

    Characterization produces leakage samples on regular grids of loading
    current; estimation interpolates those tables. Queries outside the grid
    are clamped to the boundary (loading currents beyond the characterized
    range saturate rather than extrapolate, which is the conservative choice
    for leakage). *)

type grid1d
(** Piecewise-linear function of one variable sampled on a strictly
    increasing axis. *)

val grid1d : xs:float array -> ys:float array -> grid1d
(** Build a 1-D table. Raises [Invalid_argument] if the axes mismatch in
    length, have fewer than 2 points, or [xs] is not strictly increasing. *)

val eval1d : grid1d -> float -> float
(** Linear interpolation with boundary clamping. Raises [Invalid_argument]
    on a NaN coordinate. *)

val grid1d_xs : grid1d -> float array
val grid1d_ys : grid1d -> float array

val linspace : float -> float -> int -> float array
(** [linspace lo hi n] is [n >= 2] equally spaced points from [lo] to [hi]
    inclusive. *)
