(** Order-2 univariate jets (forward-mode automatic differentiation).

    A jet carries a value together with its first and second derivative with
    respect to one scalar seed. Running a closed-form model on jets produces
    the model's exact analytic derivatives — no finite-difference step-size
    noise — which is what the variance-propagation layer differentiates the
    compact device models with. The finite-difference oracle in the test
    suite cross-checks every derivative produced this way. *)

type t = {
  v : float;   (** value *)
  d : float;   (** first derivative w.r.t. the seed *)
  dd : float;  (** second derivative w.r.t. the seed *)
}

val const : float -> t
(** A constant: zero first and second derivative. *)

val var : float -> t
(** The seed variable itself: derivative 1, curvature 0. *)

val value : t -> float
val deriv : t -> float
val second : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val div : t -> t -> t
val inv : t -> t
(** Multiplicative inverse. *)

val scale : float -> t -> t
val add_const : float -> t -> t

val exp : t -> t
val log1p : t -> t

val pow_const : t -> float -> t
(** [pow_const x p] is [x ** p] for a constant exponent. *)

val abs : t -> t
(** Branches on the value's sign (kink at 0, like [abs_float]). *)

val min_const : float -> t -> t
(** [min_const k x] is [x] where [x.v <= k], else the constant [k] —
    mirrors saturation branches in the device model. *)

val logistic : t -> t
(** Mirrors the device model's saturating logistic (exactly constant beyond
    ±40, so derivatives vanish there). *)
