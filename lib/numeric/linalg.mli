(** Small dense linear algebra for multi-node Newton solves.

    The full-Newton DC solver needs to factor Jacobians of modest size (tens
    to a few hundred nodes — it is only used as a cross-check and for gate
    characterization cells; large circuits use the Gauss–Seidel path). Dense
    LU with partial pivoting is sufficient and dependency-free. *)

type matrix = float array array
(** Row-major [n x m] matrix; rows must share one length. *)

val mat_vec : matrix -> float array -> float array
(** Matrix-vector product. *)

exception Singular
(** Raised when elimination hits a (numerically) zero pivot. *)

val lu_solve : matrix -> float array -> float array
(** [lu_solve a b] solves [a x = b] by LU with partial pivoting. [a] and [b]
    are not modified. Raises [Singular] on rank deficiency. *)

val norm_inf : float array -> float
