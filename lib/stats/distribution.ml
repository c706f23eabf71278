type t = {
  name : string;
  params : (string * float) list;
  support : float * float;
  pdf : float -> float;
  cdf : float -> float;
  quantile : float -> float;
  sample : Rng.t -> float;
  mean : float;
  variance : float;
}

(* Finite probing bounds for numeric fallbacks on unbounded supports. *)
let finite_bounds (lo, hi) cdf =
  let lo =
    if Float.is_finite lo then lo
    else begin
      (* Walk left until the CDF is essentially 0. *)
      let x = ref (-1.) in
      while cdf !x > 1e-12 && !x > -1e300 do
        x := !x *. 4.
      done;
      !x
    end
  in
  let hi =
    if Float.is_finite hi then hi
    else begin
      let x = ref (Float.max 1. (abs_float lo)) in
      while cdf !x < 1. -. 1e-12 && !x < 1e300 do
        x := !x *. 4.
      done;
      !x
    end
  in
  (lo, hi)

let numeric_quantile_of ~support ~cdf p =
  if not (p > 0. && p < 1.) then
    invalid_arg "Distribution.quantile: p must lie in (0, 1)";
  let lo, hi = finite_bounds support cdf in
  Rootfind.brent (fun x -> cdf x -. p) ~lo ~hi

let numeric_mean_of ~support ~pdf ~cdf =
  let lo, _ = support in
  if Float.is_finite lo && snd support = infinity then
    (* E[X] = lo + ∫_lo^∞ (1 - F).  The survival form is better conditioned
       than t·pdf for heavy-tailed laws. *)
    lo +. Quadrature.integrate_decaying (fun x -> 1. -. cdf x) ~lo ~scale:1.
  else begin
    let lo, hi = finite_bounds support cdf in
    Quadrature.simpson_adaptive (fun x -> x *. pdf x) ~lo ~hi
  end

let make ~name ?(params = []) ~support ~pdf ~cdf ?quantile ?sample ?mean
    ?variance () =
  let quantile =
    match quantile with
    | Some q -> q
    | None -> numeric_quantile_of ~support ~cdf
  in
  let sample =
    match sample with Some s -> s | None -> fun rng -> quantile (Rng.uniform_pos rng)
  in
  let mean =
    match mean with Some m -> m | None -> numeric_mean_of ~support ~pdf ~cdf
  in
  let variance =
    match variance with
    | Some v -> v
    | None ->
      let lo, hi = finite_bounds support cdf in
      let m2 =
        Quadrature.simpson_adaptive (fun x -> (x -. mean) ** 2. *. pdf x) ~lo ~hi
      in
      m2
  in
  { name; params; support; pdf; cdf; quantile; sample; mean; variance }

let shift d x0 =
  if x0 = 0. then d
  else begin
    let lo, hi = d.support in
    {
      name = (if x0 <> 0. then "shifted-" ^ d.name else d.name);
      params = ("x0", x0) :: d.params;
      support = (lo +. x0, (if Float.is_finite hi then hi +. x0 else hi));
      pdf = (fun x -> d.pdf (x -. x0));
      cdf = (fun x -> d.cdf (x -. x0));
      quantile = (fun p -> x0 +. d.quantile p);
      sample = (fun rng -> x0 +. d.sample rng);
      mean = d.mean +. x0;
      variance = d.variance;
    }
  end

let numeric_mean d = numeric_mean_of ~support:d.support ~pdf:d.pdf ~cdf:d.cdf
let sample_array d rng n = Array.init n (fun _ -> d.sample rng)

let pp ppf d =
  let pp_param ppf (k, v) = Format.fprintf ppf "%s=%g" k v in
  Format.fprintf ppf "%s(%a)" d.name
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_param)
    d.params

let to_string d = Format.asprintf "%a" pp d
