(** Table interpolation used by the gate characterization layer.

    Characterization produces leakage samples on regular grids of loading
    current; estimation interpolates those tables. Queries outside the grid
    are clamped to the boundary (loading currents beyond the characterized
    range saturate rather than extrapolate, which is the conservative choice
    for leakage). *)

type grid1d = private { xs : float array; ys : float array }
(** Piecewise-linear function of one variable sampled on a strictly
    increasing axis [xs], with values [ys]. The nodes are readable so hot
    loops can walk them without a copy; both arrays are read-only. *)

val grid1d : xs:float array -> ys:float array -> grid1d
(** Build a 1-D table. Raises [Invalid_argument] if the axes mismatch in
    length, have fewer than 2 points, or [xs] is not strictly increasing. *)

val eval1d : grid1d -> float -> float
(** Linear interpolation with boundary clamping. Raises [Invalid_argument]
    on a NaN coordinate. *)

val linspace : float -> float -> int -> float array
(** [linspace lo hi n] is [n >= 2] equally spaced points from [lo] to [hi]
    inclusive. *)
