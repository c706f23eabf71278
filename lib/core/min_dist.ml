open Lv_stats

let check_n n = if n <= 0 then invalid_arg "Min_dist: n must be positive"

let cdf (d : Distribution.t) ~n x =
  check_n n;
  1. -. Order_stats.survival_power d.Distribution.cdf n x

let pdf (d : Distribution.t) ~n x =
  check_n n;
  let f = d.Distribution.pdf x in
  if f = 0. then 0.
  else float_of_int n *. f *. Order_stats.survival_power d.Distribution.cdf (n - 1) x

let exponential_params (d : Distribution.t) =
  let params = d.Distribution.params in
  match d.Distribution.name with
  | "exponential" ->
    Option.map (fun l -> (0., l)) (List.assoc_opt "lambda" params)
  | "shifted-exponential" ->
    (match (List.assoc_opt "x0" params, List.assoc_opt "lambda" params) with
    | Some x0, Some l -> Some (x0, l)
    | _ -> None)
  | _ -> None

(* Families with a closed form or a dedicated kernel, detected by name and
   parameters like [exponential_params]; [None] sends the law to the
   generic quadrature. *)
let fast_expectation (d : Distribution.t) n =
  let param k = List.assoc_opt k d.Distribution.params in
  let lognormal x0 =
    match (param "mu", param "sigma") with
    | Some mu, Some sigma when Order_stats.lognormal_kernel_covers ~sigma n ->
      Some (Order_stats.lognormal_expected_min ~mu ~sigma ~x0 n)
    | _ -> None
  in
  match (d.Distribution.name, param "x0") with
  | "lognormal", _ -> lognormal 0.
  | "shifted-lognormal", Some x0 -> lognormal x0
  | "weibull", _ -> (
    match (param "shape", param "scale") with
    | Some shape, Some scale -> Some (Order_stats.weibull_expected_min ~shape ~scale n)
    | _ -> None)
  | _ ->
    Option.map
      (fun (x0, rate) -> Order_stats.exponential_expected_min ~rate ~x0 n)
      (exponential_params d)

let expectation (d : Distribution.t) ~n =
  check_n n;
  match fast_expectation d n with
  | Some e -> e
  | None -> Order_stats.expected_min d n

let distribution (d : Distribution.t) ~n =
  check_n n;
  if n = 1 then d
  else begin
    let fn = float_of_int n in
    let quantile p =
      (* F_Z(x) = p  ⇔  F_Y(x) = 1 - (1-p)^(1/n). *)
      let q = -.expm1 (log1p (-.p) /. fn) in
      let q = Float.max 1e-300 (Float.min (1. -. 1e-16) q) in
      d.Distribution.quantile q
    in
    let sample rng =
      let m = ref (d.Distribution.sample rng) in
      for _ = 2 to n do
        let x = d.Distribution.sample rng in
        if x < !m then m := x
      done;
      !m
    in
    Distribution.make
      ~name:(Printf.sprintf "min%d-of-%s" n d.Distribution.name)
      ~params:(("n", fn) :: d.Distribution.params)
      ~support:d.Distribution.support ~pdf:(pdf d ~n) ~cdf:(cdf d ~n) ~quantile
      ~sample ~mean:(expectation d ~n)
      ~variance:
        (match exponential_params d with
        | Some (_, rate) -> 1. /. ((fn *. rate) ** 2.)
        | None -> Order_stats.variance_min d n)
      ()
  end
