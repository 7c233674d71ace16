(* Order-2 univariate jets: forward-mode automatic differentiation carrying
   a value, a first and a second derivative with respect to one scalar
   seed. Evaluating a model on jets yields the exact analytic derivatives
   of the implemented formulas — the closed forms the variance-propagation
   layer needs, machine-precision instead of finite-difference noise. *)

type t = {
  v : float;   (* value *)
  d : float;   (* first derivative *)
  dd : float;  (* second derivative *)
}

let const v = { v; d = 0.0; dd = 0.0 }
let var v = { v; d = 1.0; dd = 0.0 }

let value j = j.v
let deriv j = j.d
let second j = j.dd

let add a b = { v = a.v +. b.v; d = a.d +. b.d; dd = a.dd +. b.dd }
let sub a b = { v = a.v -. b.v; d = a.d -. b.d; dd = a.dd -. b.dd }
let neg a = { v = -.a.v; d = -.a.d; dd = -.a.dd }

let mul a b =
  {
    v = a.v *. b.v;
    d = (a.d *. b.v) +. (a.v *. b.d);
    dd = (a.dd *. b.v) +. (2.0 *. a.d *. b.d) +. (a.v *. b.dd);
  }

let inv b =
  let iv = 1.0 /. b.v in
  let iv2 = iv *. iv in
  {
    v = iv;
    d = -.b.d *. iv2;
    dd = ((2.0 *. b.d *. b.d /. b.v) -. b.dd) *. iv2;
  }

let div a b = mul a (inv b)

let scale k a = { v = k *. a.v; d = k *. a.d; dd = k *. a.dd }
let add_const k a = { a with v = a.v +. k }

(* Chain rule for a scalar function f with derivatives f', f'':
   (f∘x)'' = f''(x) x'^2 + f'(x) x''. *)
let lift ~f ~f' ~f'' x =
  { v = f; d = f' *. x.d; dd = (f'' *. x.d *. x.d) +. (f' *. x.dd) }

let exp x =
  let e = Stdlib.exp x.v in
  lift ~f:e ~f':e ~f'':e x

let log1p x =
  let u = 1.0 +. x.v in
  lift ~f:(Stdlib.log1p x.v) ~f':(1.0 /. u) ~f'':(-1.0 /. (u *. u)) x

(* x ** p for a constant exponent (mirrors [( ** )] on positive bases). *)
let pow_const x p =
  let f = x.v ** p in
  let f' = p *. (x.v ** (p -. 1.0)) in
  let f'' = p *. (p -. 1.0) *. (x.v ** (p -. 2.0)) in
  lift ~f ~f' ~f'' x

let abs x = if x.v >= 0.0 then x else neg x

let min_const k x = if x.v <= k then x else const k

(* Mirrors [Model.logistic], including its saturation branches (which are
   exactly constant, hence zero derivatives). *)
let logistic x =
  if x.v > 40.0 then const 1.0
  else if x.v < -40.0 then const 0.0
  else begin
    let s = 1.0 /. (1.0 +. Stdlib.exp (-.x.v)) in
    let s' = s *. (1.0 -. s) in
    lift ~f:s ~f':s' ~f'':(s' *. (1.0 -. (2.0 *. s))) x
  end
