let sorted_copy sample =
  if Array.length sample = 0 then invalid_arg "Kolmogorov.statistic: empty sample";
  Array.iter
    (fun x ->
      if Float.is_nan x then
        invalid_arg "Kolmogorov.statistic: sample contains NaN")
    sample;
  let xs = Array.copy sample in
  (* Float.compare's order, not the polymorphic compare's: the latter
     puts NaN at an unspecified rank, silently mis-sorting the ECDF. *)
  Float_sort.sort xs;
  xs

let statistic_sorted xs cdf =
  let n = Array.length xs in
  let fn = float_of_int n in
  let d = ref 0. in
  for i = 0 to n - 1 do
    let f = cdf xs.(i) in
    if Float.is_nan f then
      invalid_arg "Kolmogorov.statistic: candidate CDF returned NaN";
    (* ECDF jumps from i/n to (i+1)/n at xs.(i): check both sides.  A NaN
       on either side would fail both [>] tests and leave [d] unchanged —
       hence the explicit rejection above. *)
    let above = (float_of_int (i + 1) /. fn) -. f in
    let below = f -. (float_of_int i /. fn) in
    if above > !d then d := above;
    if below > !d then d := below
  done;
  !d

let statistic sample cdf = statistic_sorted (sorted_copy sample) cdf

let kolmogorov_cdf x =
  if x <= 0. then 0.
  else if x < 1.18 then begin
    (* Jacobi theta form: K(x) = (√(2π)/x) Σ_{k≥1} e^(-(2k-1)²π²/(8x²)),
       fast for small x. *)
    let t = exp (-.Float.pi *. Float.pi /. (8. *. x *. x)) in
    let t2 = t *. t in
    sqrt (2. *. Float.pi) /. x *. (t *. (1. +. ((t2 ** 4.) *. (1. +. (t2 ** 8.)))))
  end
  else begin
    (* Alternating series, fast for large x. *)
    let acc = ref 0. in
    let k = ref 1 in
    let continue = ref true in
    while !continue && !k <= 100 do
      let fk = float_of_int !k in
      let term = exp (-2. *. fk *. fk *. x *. x) in
      let signed = if !k mod 2 = 1 then term else -.term in
      acc := !acc +. signed;
      if term < 1e-16 then continue := false;
      incr k
    done;
    1. -. (2. *. !acc)
  end

let p_value ~n d =
  if n <= 0 then invalid_arg "Kolmogorov.p_value: n must be positive";
  let sn = sqrt (float_of_int n) in
  let x = d *. (sn +. 0.12 +. (0.11 /. sn)) in
  let p = 1. -. kolmogorov_cdf x in
  Float.min 1. (Float.max 0. p)

type result = {
  statistic : float;
  p_value : float;
  n : int;
  accept : bool;
  alpha : float;
}

let test ?(alpha = 0.05) sample cdf =
  if not (alpha > 0. && alpha < 1.) then
    invalid_arg
      (Printf.sprintf "Kolmogorov.test: alpha must lie in (0, 1), got %g" alpha);
  let d = statistic sample cdf in
  let n = Array.length sample in
  let p = p_value ~n d in
  { statistic = d; p_value = p; n; accept = p >= alpha; alpha }

let pp_result ppf r =
  Format.fprintf ppf "KS: D=%.5f n=%d p=%.5f -> %s (alpha=%.2f)" r.statistic
    r.n r.p_value
    (if r.accept then "accept" else "reject")
    r.alpha
