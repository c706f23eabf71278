let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let exponential xs =
  check_nonempty "Mle.exponential" xs;
  let m = Summary.mean xs in
  if not (m > 0.) then invalid_arg "Mle.exponential: sample mean must be positive";
  Exponential.create ~rate:(1. /. m)

let exponential_censored ~observed ~censored =
  check_nonempty "Mle.exponential_censored" observed;
  let total =
    Array.fold_left ( +. ) 0. observed +. Array.fold_left ( +. ) 0. censored
  in
  if not (total > 0.) then
    invalid_arg "Mle.exponential_censored: total exposure must be positive";
  Exponential.create ~rate:(float_of_int (Array.length observed) /. total)

let shifted_exponential xs =
  check_nonempty "Mle.shifted_exponential" xs;
  let xmin = Array.fold_left Float.min xs.(0) xs in
  let m = Summary.mean xs in
  if m -. xmin <= 0. then exponential xs
  else begin
    (* The sample minimum overshoots the true shift by E[min - x0] = 1/(nλ)
       ≈ (mean - min)/n.  Correcting makes the estimator land on x0 ≈ 0 for
       genuinely unshifted data (the paper's Costas 21 judgment call,
       "x0 << 1/λ ⇒ take x0 = 0", made automatic) while keeping real shifts
       (the paper's AI 700 case). *)
    let n = float_of_int (Array.length xs) in
    let x0 =
      if n > 1. then
        Float.max 0. (xmin -. ((m -. xmin) /. (n -. 1.)))
      else xmin
    in
    if x0 = 0. then exponential xs
    else Exponential.shifted ~x0 ~rate:(1. /. (m -. x0))
  end

let zero_spread_sigma = 1e-12

let normal xs =
  check_nonempty "Mle.normal" xs;
  let sd = Summary.std xs in
  let sd = if sd > 0. then sd else zero_spread_sigma in
  Normal.create ~mu:(Summary.mean xs) ~sigma:sd

let log_fit name xs x0 =
  let logs =
    Array.map
      (fun x ->
        let v = x -. x0 in
        if v <= 0. then invalid_arg (name ^ ": observations must exceed the shift");
        log v)
      xs
  in
  let mu = Summary.mean logs in
  let sigma =
    (* MLE uses the n-denominator variance of the logs. *)
    let n = float_of_int (Array.length logs) in
    let acc = Array.fold_left (fun a l -> a +. ((l -. mu) ** 2.)) 0. logs in
    sqrt (acc /. n)
  in
  let sigma = if sigma > 0. then sigma else zero_spread_sigma in
  (mu, sigma)

let lognormal xs =
  check_nonempty "Mle.lognormal" xs;
  let mu, sigma = log_fit "Mle.lognormal" xs 0. in
  Lognormal.create ~mu ~sigma

let shifted_lognormal xs =
  check_nonempty "Mle.shifted_lognormal" xs;
  let xmin = Array.fold_left Float.min xs.(0) xs in
  if xmin <= 0. then lognormal xs
  else begin
    (* Score a candidate shift by the KS p-value of the resulting fit; scan a
       grid, then keep the best.  The p-value is cheap (one pass per
       candidate) and the grid is dense enough for the shift's effect, which
       is smooth at the observation scale. *)
    let fit_at x0 =
      let mu, sigma = log_fit "Mle.shifted_lognormal" xs x0 in
      Lognormal.shifted ~x0 ~mu ~sigma
    in
    let unshifted = lognormal xs in
    (* Every candidate is scored against the same sample: sort it once. *)
    let sorted = Kolmogorov.sorted_copy xs in
    let n = Array.length xs in
    let score d =
      Kolmogorov.p_value ~n (Kolmogorov.statistic_sorted sorted d.Distribution.cdf)
    in
    let candidates = 48 in
    let best = ref (0., score unshifted) in
    for i = 1 to candidates do
      (* Push candidates toward xmin: the admissible boundary is where the
         paper's Mathematica fit landed (x0 = observed min). *)
      let frac = float_of_int i /. float_of_int candidates in
      let x0 = xmin *. (frac ** 0.5) in
      let x0 = Float.min x0 (xmin *. (1. -. 1e-9)) in
      match fit_at x0 with
      | d ->
        let s = score d in
        if s > snd !best then best := (x0, s)
      | exception Invalid_argument _ -> ()
    done;
    fit_at (fst !best)
  end

let weibull xs =
  check_nonempty "Mle.weibull" xs;
  let tol = 1e-10 and max_iter = 100 in
  Array.iter (fun x -> if x <= 0. then invalid_arg "Mle.weibull: observations must be positive") xs;
  let n = float_of_int (Array.length xs) in
  let logs = Array.map log xs in
  let mean_log = Summary.mean logs in
  (* Newton on g(k) = Σ x^k log x / Σ x^k - 1/k - mean_log = 0. *)
  let g_and_g' k =
    let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. in
    Array.iteri
      (fun i x ->
        let xk = x ** k in
        let lx = logs.(i) in
        s0 := !s0 +. xk;
        s1 := !s1 +. (xk *. lx);
        s2 := !s2 +. (xk *. lx *. lx))
      xs;
    let g = (!s1 /. !s0) -. (1. /. k) -. mean_log in
    let g' = ((!s2 /. !s0) -. ((!s1 /. !s0) ** 2.)) +. (1. /. (k *. k)) in
    (g, g')
  in
  (* Seed: method of moments on logs (σ_log ≈ π/(k√6)). *)
  let sd_log = Summary.std logs in
  let k = ref (if sd_log > 0. then Float.pi /. (sd_log *. sqrt 6.) else 1.) in
  (try
     for _ = 1 to max_iter do
       let g, g' = g_and_g' !k in
       let step = g /. g' in
       let k' = Float.max 1e-6 (!k -. step) in
       let converged = abs_float (k' -. !k) < tol *. !k in
       k := k';
       if converged then raise Exit
     done
   with Exit -> ());
  let shape = !k in
  let scale =
    let acc = Array.fold_left (fun a x -> a +. (x ** shape)) 0. xs in
    (acc /. n) ** (1. /. shape)
  in
  Weibull.create ~shape ~scale

let gamma xs =
  check_nonempty "Mle.gamma" xs;
  Array.iter (fun x -> if x <= 0. then invalid_arg "Mle.gamma: observations must be positive") xs;
  let m = Summary.mean xs in
  let mean_log = Summary.mean (Array.map log xs) in
  let s = log m -. mean_log in
  if not (s > 0.) then invalid_arg "Mle.gamma: sample has no spread";
  (* Minka's seed, then Newton on log k - ψ(k) = s (ψ' by finite difference
     of ψ, accurate enough for a contraction this strong). *)
  let k = ref ((3. -. s +. sqrt (((s -. 3.) ** 2.) +. (24. *. s))) /. (12. *. s)) in
  for _ = 1 to 40 do
    let f = log !k -. Special.digamma !k -. s in
    let h = 1e-6 *. !k in
    let dpsi = (Special.digamma (!k +. h) -. Special.digamma (!k -. h)) /. (2. *. h) in
    let f' = (1. /. !k) -. dpsi in
    let k' = !k -. (f /. f') in
    if k' > 0. then k := k'
  done;
  Gamma_dist.create ~shape:!k ~rate:(!k /. m)

let levy xs =
  check_nonempty "Mle.levy" xs;
  let med = Summary.median xs in
  if med <= 0. then invalid_arg "Mle.levy: median must be positive";
  (* cdf(median) = 1/2 ⇔ erfc(√(c/2m)) = 1/2. *)
  let z = Special.erfc_inv 0.5 in
  Levy.create ~scale:(2. *. z *. z *. med)
