let check_n n = if n <= 0 then invalid_arg "Order_stats: n must be positive"

let survival_power cdf n t =
  let f = cdf t in
  if f >= 1. then 0.
  else if f <= 0. then 1.
  else exp (float_of_int n *. log1p (-.f))

(* Width scale for the quadrature: the minimum of n draws concentrates
   around the base quantile at p = 1 - (1/2)^(1/n) (its median), so panels
   sized from that point resolve the mass wherever it sits. *)
let min_scale (d : Distribution.t) n lo =
  let p_med = -.expm1 (log 0.5 /. float_of_int n) in
  let p_med = Float.max 1e-12 (Float.min (1. -. 1e-12) p_med) in
  match d.Distribution.quantile p_med with
  | q when Float.is_finite q && q > lo -> Float.max ((q -. lo) /. 4.) 1e-9
  | _ -> 1.
  | exception Invalid_argument _ -> 1.

(* E of a nonnegative-support random variable given its survival function:
   lo + ∫_lo^hi S(t) dt — adaptive Simpson when the support is bounded
   (handles the kink where S reaches 0), geometric panels otherwise. *)
let expectation_from_survival ~lo ~hi ~scale survival =
  if Float.is_finite hi then
    lo +. Quadrature.simpson_adaptive survival ~lo ~hi
  else lo +. Quadrature.integrate_decaying ~scale survival ~lo

let expected_min (d : Distribution.t) n =
  check_n n;
  let lo, _ = d.Distribution.support in
  if not (Float.is_finite lo) then
    invalid_arg "Order_stats.expected_min: support must be bounded below";
  if lo < 0. then
    invalid_arg "Order_stats.expected_min: runtime laws must be nonnegative";
  let scale = min_scale d n lo in
  let _, hi = d.Distribution.support in
  expectation_from_survival ~lo ~hi ~scale (survival_power d.Distribution.cdf n)

(* Fixed-grid lognormal kernel.  With X = e^(μ+σZ), the minimum of n draws
   is e^(μ+σM) where P(M > z) = Φc(z)^n, so integrating by parts

     E[min] = σ·e^μ·∫ e^(σz) Φc(z)^n dz.

   Below [lognormal_lo] Φc(z)^n = 1 to within n·Φ(−8.5) ≈ 1e-11, and that
   part is the closed form e^(σa)/σ; above [lognormal_hi] the integrand is
   negligible.  One 320-point Gauss–Legendre panel covers the rest, and
   log Φc is tabulated on its nodes here, once, so a call costs 320 [exp]s
   with no closure and no [erfc]. *)
let lognormal_lo = -8.5
let lognormal_hi = 9.

let lognormal_z, lognormal_w, lognormal_log_phic =
  let x, w = Quadrature.gauss_nodes 320 in
  let mid = 0.5 *. (lognormal_hi +. lognormal_lo)
  and half = 0.5 *. (lognormal_hi -. lognormal_lo) in
  let z = Array.map (fun x -> mid +. (half *. x)) x in
  let log_phic z =
    (* log1p keeps log Φc exact to rounding where Φc is near 1, which
       matters once it is multiplied by n. *)
    if z < 0. then log1p (-.Special.norm_cdf z)
    else log (Special.norm_cdf (-.z))
  in
  (z, Array.map (fun w -> half *. w) w, Array.map log_phic z)

let lognormal_kernel_covers ~sigma n = sigma >= 0.1 && sigma <= 3. && n >= 1 && n <= 1 lsl 20

let lognormal_expected_min ~mu ~sigma ?(x0 = 0.) n =
  if not (lognormal_kernel_covers ~sigma n) then
    invalid_arg "Order_stats.lognormal_expected_min: sigma or n outside the kernel's domain";
  let fn = float_of_int n in
  let acc = ref 0. in
  for i = 0 to Array.length lognormal_z - 1 do
    acc :=
      !acc
      +. Array.unsafe_get lognormal_w i
         *. exp
              ((sigma *. Array.unsafe_get lognormal_z i)
              +. (fn *. Array.unsafe_get lognormal_log_phic i))
  done;
  x0 +. (exp mu *. (exp (sigma *. lognormal_lo) +. (sigma *. !acc)))

let moment_min (d : Distribution.t) ~n ~k =
  check_n n;
  if k <= 0 then invalid_arg "Order_stats.moment_min: k must be positive";
  let lo, _ = d.Distribution.support in
  if lo < 0. then invalid_arg "Order_stats.moment_min: support must be nonnegative";
  (* E[Z^k] = ∫_0^∞ k t^(k-1) S(t) dt; S = 1 on [0, lo]. *)
  let fk = float_of_int k in
  let s = survival_power d.Distribution.cdf n in
  let head = lo ** fk in
  let integrand t = fk *. (t ** (fk -. 1.)) *. s t in
  let scale = min_scale d n lo in
  let _, hi = d.Distribution.support in
  head
  +.
  if Float.is_finite hi then Quadrature.simpson_adaptive integrand ~lo ~hi
  else Quadrature.integrate_decaying ~scale integrand ~lo

let variance_min d n =
  let m1 = moment_min d ~n ~k:1 in
  let m2 = moment_min d ~n ~k:2 in
  m2 -. (m1 *. m1)

let cdf_kth (d : Distribution.t) ~n ~k t =
  check_n n;
  if k < 1 || k > n then invalid_arg "Order_stats.cdf_kth: k must lie in [1, n]";
  let f = d.Distribution.cdf t in
  if f <= 0. then 0.
  else if f >= 1. then 1.
  else Special.beta_inc (float_of_int k) (float_of_int (n - k + 1)) f

let expected_kth (d : Distribution.t) ~n ~k =
  check_n n;
  if k < 1 || k > n then invalid_arg "Order_stats.expected_kth: k must lie in [1, n]";
  let lo, _ = d.Distribution.support in
  if lo < 0. then invalid_arg "Order_stats.expected_kth: support must be nonnegative";
  (* Scale from the base quantile at the k-th order statistic's median
     (approximately p = k/(n+1)). *)
  let p = float_of_int k /. float_of_int (n + 1) in
  let p = Float.max 1e-12 (Float.min (1. -. 1e-12) p) in
  let q = d.Distribution.quantile p in
  let scale = if Float.is_finite q && q > lo then Float.max ((q -. lo) /. 2.) 1e-9 else 1. in
  let _, hi = d.Distribution.support in
  expectation_from_survival ~lo ~hi ~scale (fun t -> 1. -. cdf_kth d ~n ~k t)

let exponential_expected_min ~rate ?(x0 = 0.) n =
  check_n n;
  if rate <= 0. then invalid_arg "Order_stats.exponential_expected_min: rate must be positive";
  x0 +. (1. /. (float_of_int n *. rate))

let uniform_expected_kth ~lo ~hi ~n ~k =
  check_n n;
  if k < 1 || k > n then invalid_arg "Order_stats.uniform_expected_kth: k must lie in [1, n]";
  lo +. ((hi -. lo) *. float_of_int k /. float_of_int (n + 1))

let weibull_expected_min ~shape ~scale n =
  check_n n;
  let scale' = scale /. (float_of_int n ** (1. /. shape)) in
  scale' *. Special.gamma (1. +. (1. /. shape))
