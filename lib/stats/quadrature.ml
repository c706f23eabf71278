(* ------------------------------------------------------------------ *)
(* Adaptive Simpson with Richardson error control                      *)
(* ------------------------------------------------------------------ *)

let simpson_adaptive ?(rel_tol = 1e-10) ?(abs_tol = 1e-12) ?(max_depth = 48) f ~lo ~hi =
  let simpson a fa b fb =
    let m = 0.5 *. (a +. b) in
    let fm = f m in
    (m, fm, (b -. a) /. 6. *. (fa +. (4. *. fm) +. fb))
  in
  (* Recursive bisection: accept a panel when the two half-panel estimates
     agree with the whole-panel estimate to within the local tolerance. *)
  let rec go a fa b fb whole m fm tol depth =
    let lm, flm, left = simpson a fa m fm in
    let rm, frm, right = simpson m fm b fb in
    let delta = left +. right -. whole in
    if depth <= 0 || abs_float delta <= 15. *. tol then
      left +. right +. (delta /. 15.)
    else
      go a fa m fm left lm flm (tol /. 2.) (depth - 1)
      +. go m fm b fb right rm frm (tol /. 2.) (depth - 1)
  in
  if lo = hi then 0.
  else begin
    let fa = f lo and fb = f hi in
    let m, fm, whole = simpson lo fa hi fb in
    let tol = Float.max abs_tol (rel_tol *. abs_float whole) in
    go lo fa hi fb whole m fm tol max_depth
  end

(* ------------------------------------------------------------------ *)
(* Gauss–Legendre                                                      *)
(* ------------------------------------------------------------------ *)

(* Nodes and weights on [-1,1] by Newton iteration on Legendre polynomials
   (standard gauleg construction). *)
let newton_nodes n =
  let x = Array.make n 0. and w = Array.make n 0. in
  let m = (n + 1) / 2 in
  for i = 0 to m - 1 do
    (* Initial guess: Chebyshev-like approximation to the i-th root. *)
    let z = ref (cos (Float.pi *. (float_of_int i +. 0.75) /. (float_of_int n +. 0.5))) in
    let pp = ref 0. in
    let continue = ref true in
    while !continue do
      let p1 = ref 1. and p2 = ref 0. in
      for j = 0 to n - 1 do
        let p3 = !p2 in
        p2 := !p1;
        let fj = float_of_int j in
        p1 := (((2. *. fj +. 1.) *. !z *. !p2) -. (fj *. p3)) /. (fj +. 1.)
      done;
      pp := float_of_int n *. ((!z *. !p1) -. !p2) /. ((!z *. !z) -. 1.);
      let z1 = !z in
      z := z1 -. (!p1 /. !pp);
      if abs_float (!z -. z1) <= 1e-15 then continue := false
    done;
    x.(i) <- -. !z;
    x.(n - 1 - i) <- !z;
    let wi = 2. /. ((1. -. (!z *. !z)) *. !pp *. !pp) in
    w.(i) <- wi;
    w.(n - 1 - i) <- wi
  done;
  (x, w)

(* The orders production uses get their tables once, at module
   initialisation: 48 for [integrate_decaying]'s panels and 320 for the
   lognormal order-statistic kernel's grid.  Nothing writes to them after
   that, so any domain may read them without a lock. *)
let table_48 = newton_nodes 48
let table_320 = newton_nodes 320

let table = function 48 -> table_48 | 320 -> table_320 | order -> newton_nodes order

let gauss_nodes order =
  if order < 2 then invalid_arg "Quadrature.gauss_nodes: order must be >= 2";
  let x, w = table order in
  (Array.copy x, Array.copy w)

let gauss_legendre ?(order = 64) f ~lo ~hi =
  if order < 2 then invalid_arg "Quadrature.gauss_legendre: order must be >= 2";
  let x, w = table order in
  let xm = 0.5 *. (hi +. lo) and xr = 0.5 *. (hi -. lo) in
  let acc = ref 0. in
  for i = 0 to order - 1 do
    acc := !acc +. (w.(i) *. f (xm +. (xr *. x.(i))))
  done;
  xr *. !acc

(* ------------------------------------------------------------------ *)
(* Semi-infinite intervals                                             *)
(* ------------------------------------------------------------------ *)

let integrate_decaying ?(rel_tol = 1e-10) ?(scale = 1.0) f ~lo =
  if scale <= 0. then invalid_arg "Quadrature.integrate_decaying: scale must be positive";
  let total = ref 0. in
  let a = ref lo in
  let width = ref scale in
  let stagnant = ref 0 in
  let panels = ref 0 in
  (* Geometric panels; stop after two consecutive negligible panels so a
     single near-zero panel in the rise of the integrand does not end the
     sweep early. *)
  while !stagnant < 2 && !panels < 200 do
    let b = !a +. !width in
    let p = gauss_legendre ~order:48 f ~lo:!a ~hi:b in
    total := !total +. p;
    if abs_float p <= rel_tol *. Float.max (abs_float !total) 1e-300 then incr stagnant
    else stagnant := 0;
    a := b;
    width := !width *. 1.6;
    incr panels
  done;
  !total
