(* Standard expansions: Lanczos for log-gamma; series and Lentz continued
   fractions for the incomplete gamma function; erf/erfc derived
   from the incomplete gamma with direct asymptotics for the far tail.
   References: Numerical Recipes 3rd ed. ch. 6, Lanczos (1964), Acklam's
   inverse-normal approximation. *)

let pi = 4. *. atan 1.
let eps = epsilon_float
let fpmin = min_float /. eps

(* ------------------------------------------------------------------ *)
(* Gamma                                                               *)
(* ------------------------------------------------------------------ *)

(* Lanczos coefficients (g = 7, n = 9), accurate to ~1e-15. *)
let lanczos_g = 7.
let lanczos_coef =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0. then invalid_arg "Special.log_gamma: nonpositive argument"
  else if x < 0.5 then
    (* Reflection: Γ(x) Γ(1-x) = π / sin(πx). *)
    log (pi /. sin (pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let acc = ref lanczos_coef.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos_coef.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2. *. pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let gamma x =
  if x <= 0. then invalid_arg "Special.gamma: nonpositive argument"
  else exp (log_gamma x)

(* ------------------------------------------------------------------ *)
(* Regularized incomplete gamma                                        *)
(* ------------------------------------------------------------------ *)

(* Series representation of P(a,x), converges quickly for x < a + 1.
   [gln] is [log_gamma a]. *)
let gamma_p_series gln a x =
  let ap = ref a and del = ref (1. /. a) in
  let sum = ref !del in
  let n = ref 0 in
  while !n <= 1000 do
    ap := !ap +. 1.;
    del := !del *. x /. !ap;
    sum := !sum +. !del;
    if abs_float !del < abs_float !sum *. eps then n := max_int else incr n
  done;
  !sum *. exp ((-.x) +. (a *. log x) -. gln)

(* Continued fraction for Q(a,x) (modified Lentz), for x >= a + 1.
   [gln] is [log_gamma a]. *)
let gamma_q_cf gln a x =
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. fpmin) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  let i = ref 1 in
  while !i <= 1000 do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.;
    d := (an *. !d) +. !b;
    if abs_float !d < fpmin then d := fpmin;
    c := !b +. (an /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if abs_float (del -. 1.) < eps then i := max_int else incr i
  done;
  exp ((-.x) +. (a *. log x) -. gln) *. !h

(* P and Q once the arguments are checked. *)
let lower gln a x =
  if x = 0. then 0.
  else if x < a +. 1. then gamma_p_series gln a x
  else 1. -. gamma_q_cf gln a x

let upper gln a x =
  if x = 0. then 1.
  else if x < a +. 1. then 1. -. gamma_p_series gln a x
  else gamma_q_cf gln a x

let gamma_p a x =
  if a <= 0. then invalid_arg "Special.gamma_p: a must be positive";
  if x < 0. then invalid_arg "Special.gamma_p: x must be nonnegative";
  lower (log_gamma a) a x

let gamma_q a x =
  if a <= 0. then invalid_arg "Special.gamma_q: a must be positive";
  if x < 0. then invalid_arg "Special.gamma_q: x must be nonnegative";
  upper (log_gamma a) a x

(* ------------------------------------------------------------------ *)
(* erf / erfc                                                          *)
(* ------------------------------------------------------------------ *)

(* erf x = P(1/2, x²) and erfc x = Q(1/2, x²), so every call shares one
   log Γ(1/2).  Beyond |x| = 26, erf x rounds to ±1 and erfc (-x) to 2;
   erfc x is cut to 0 there.  The cut-off also keeps x² from overflowing
   to infinity, where the continued fraction gives NaN. *)
let log_gamma_half = log_gamma 0.5

let erf x =
  if x = 0. then 0.
  else if x > 26. then 1.
  else if x < -26. then -1.
  else
    let p = lower log_gamma_half 0.5 (x *. x) in
    if x > 0. then p else -.p

let erfc x =
  if x > 26. then 0.
  else if x < -26. then 2.
  else
    let q = upper log_gamma_half 0.5 (x *. x) in
    if x >= 0. then q else 2. -. q

(* ------------------------------------------------------------------ *)
(* Inverse normal CDF and inverse erfc                                *)
(* ------------------------------------------------------------------ *)

let norm_cdf x = 0.5 *. erfc (-.x /. sqrt 2.)

(* Acklam's rational approximation (relative error < 1.15e-9), then one
   Halley refinement step using the exact CDF, which brings the result to
   full double precision. *)
let norm_quantile p =
  if not (p > 0. && p < 1.) then
    invalid_arg "Special.norm_quantile: p must lie in (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2. *. log p) in
      (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
      +. c.(5)
      |> fun num ->
      num /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.)
    end
    else if p <= 1. -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
      +. a.(5))
      *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.)
    end
    else begin
      let q = sqrt (-2. *. log (1. -. p)) in
      -.((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
         +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.)
    end
  in
  (* Halley step: u = (Φ(x) - p) / φ(x);  x ← x - u / (1 + x u / 2). *)
  let e = norm_cdf x -. p in
  let u = e *. sqrt (2. *. pi) *. exp (x *. x /. 2.) in
  x -. (u /. (1. +. (x *. u /. 2.)))

let erfc_inv y =
  if not (y > 0. && y < 2.) then
    invalid_arg "Special.erfc_inv: argument must lie in (0, 2)";
  (* erfc x = y  ⇔  Φ(-x√2) = y/2. *)
  -.norm_quantile (y /. 2.) /. sqrt 2.

(* ------------------------------------------------------------------ *)
(* Digamma                                                             *)
(* ------------------------------------------------------------------ *)

let digamma x =
  if x <= 0. then invalid_arg "Special.digamma: nonpositive argument";
  (* Shift up until the asymptotic series is accurate, then expand. *)
  let rec shift x acc = if x < 6. then shift (x +. 1.) (acc -. (1. /. x)) else (x, acc) in
  let x, acc = shift x 0. in
  let inv = 1. /. x in
  let inv2 = inv *. inv in
  acc +. log x -. (0.5 *. inv)
  -. inv2
     *. ((1. /. 12.)
        -. inv2
           *. ((1. /. 120.) -. inv2 *. ((1. /. 252.) -. (inv2 /. 240.))))
