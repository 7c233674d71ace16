(** Small dense linear algebra for multi-node Newton solves.

    The DC solvers factor Jacobians of modest size: a gate's block of
    unknowns in the Gauss–Seidel sweep, or the whole system of a small
    circuit in the full-Newton cross-check. Dense LU with partial pivoting
    is sufficient and dependency-free. Matrices are flat, row-major float
    arrays, so a caller can keep one scratch matrix and factor into it
    again and again without allocating. *)

val mat_vec : n:int -> float array -> float array -> float array
(** [mat_vec ~n a x] is the product of the [n x n] row-major matrix [a]
    with [x]. *)

exception Singular
(** Raised when elimination hits a (numerically) zero pivot. *)

val lu_solve_in_place :
  n:int -> float array -> int array -> float array -> float array -> unit
(** [lu_solve_in_place ~n a perm b x] solves [a x = b] for the [n x n]
    row-major matrix in [a.(0 .. n*n-1)] by LU with partial pivoting
    (the first row of largest magnitude in the column is the pivot). It
    overwrites [a] with the factors and [perm.(0 .. n-1)] with the row
    order, reads [b.(0 .. n-1)] and writes the solution to [x.(0 .. n-1)]
    ([x] must not be [b]). Rows are never moved: [perm] indexes them, so
    the arithmetic and its order are those of a row-swapping LU. Allocates
    nothing. Raises [Singular] on rank deficiency ([a] then holds partial
    factors) and [Invalid_argument] when an array is too short. *)

val norm_inf : float array -> float
