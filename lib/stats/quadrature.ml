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

(* Nodes and weights on [-1,1] computed once per order by Newton iteration
   on Legendre polynomials (standard gauleg construction).  The cache is
   shared by every domain running quadratures concurrently (bootstrap
   replicates, held-out folds and oracle trials each fit and predict on
   their own pool worker), so all access is serialized by [gauss_lock];
   the arrays themselves are published once and only ever read after that.
   The Newton construction runs under the lock — it is a few microseconds,
   once per distinct order per process. *)
let gauss_tables : (int, float array * float array) Hashtbl.t = Hashtbl.create 8
let gauss_lock = Mutex.create ()

let gauss_nodes order =
  Mutex.lock gauss_lock;
  match Hashtbl.find_opt gauss_tables order with
  | Some tbl ->
    Mutex.unlock gauss_lock;
    tbl
  | None ->
    let n = order in
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
    Hashtbl.replace gauss_tables order (x, w);
    Mutex.unlock gauss_lock;
    (x, w)

let gauss_legendre ?(order = 64) f ~lo ~hi =
  if order < 2 then invalid_arg "Quadrature.gauss_legendre: order must be >= 2";
  let x, w = gauss_nodes order in
  let xm = 0.5 *. (hi +. lo) and xr = 0.5 *. (hi -. lo) in
  let acc = ref 0. in
  for i = 0 to order - 1 do
    acc := !acc +. (w.(i) *. f (xm +. (xr *. x.(i))))
  done;
  xr *. !acc

(* ------------------------------------------------------------------ *)
(* tanh–sinh (double exponential)                                      *)
(* ------------------------------------------------------------------ *)

let tanh_sinh ?(rel_tol = 1e-12) ?(max_level = 12) f ~lo ~hi =
  if lo = hi then 0.
  else begin
    let c = 0.5 *. (hi -. lo) and d = 0.5 *. (hi +. lo) in
    let pi_half = Float.pi /. 2. in
    (* Abscissa/weight for parameter t: x = tanh(π/2 · sinh t),
       w = (π/2) · cosh t / cosh²(π/2 · sinh t). *)
    let point t =
      let s = pi_half *. sinh t in
      let x = tanh s in
      let ch = cosh s in
      let w = pi_half *. cosh t /. (ch *. ch) in
      (x, w)
    in
    let eval x w =
      let v = f (d +. (c *. x)) in
      if Float.is_finite v then w *. v else 0.
    in
    let t_max = 4.0 in
    (* Level 0: trapezoid with step 1 in t. *)
    let h0 = 1.0 in
    let sum = ref (let _, w = point 0. in eval 0. w) in
    let k = ref 1 in
    while float_of_int !k *. h0 <= t_max do
      let t = float_of_int !k *. h0 in
      let x, w = point t in
      sum := !sum +. eval x w +. eval (-.x) w;
      incr k
    done;
    let estimate = ref (!sum *. h0) in
    let level = ref 1 in
    let finished = ref false in
    while (not !finished) && !level <= max_level do
      let h = h0 /. float_of_int (1 lsl !level) in
      (* Add the new midpoints of the halved grid (odd multiples of h). *)
      let add = ref 0. in
      let j = ref 1 in
      while float_of_int !j *. h <= t_max do
        let t = float_of_int !j *. h in
        let x, w = point t in
        add := !add +. eval x w +. eval (-.x) w;
        j := !j + 2
      done;
      sum := !sum +. !add;
      let new_estimate = !sum *. h in
      if
        abs_float (new_estimate -. !estimate)
        <= rel_tol *. Float.max (abs_float new_estimate) 1e-300
      then finished := true;
      estimate := new_estimate;
      incr level
    done;
    c *. !estimate
  end

(* ------------------------------------------------------------------ *)
(* Semi-infinite intervals                                             *)
(* ------------------------------------------------------------------ *)

let integrate_to_infinity ?(rel_tol = 1e-10) f ~lo =
  (* t = lo + u/(1-u), dt = du/(1-u)^2 maps [0,1) onto [lo, ∞). *)
  let g u =
    if u >= 1. then 0.
    else begin
      let one_minus = 1. -. u in
      let t = lo +. (u /. one_minus) in
      f t /. (one_minus *. one_minus)
    end
  in
  tanh_sinh ~rel_tol g ~lo:0. ~hi:1.

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
