open Lv_stats

type point = { cores : int; speedup : float }

let mean_of (d : Distribution.t) =
  let m = d.Distribution.mean in
  if Float.is_nan m then
    invalid_arg
      (Printf.sprintf "Speedup: %s has no finite mean, speed-up undefined"
         d.Distribution.name)
  else m

let at d ~cores =
  if cores <= 0 then invalid_arg "Speedup.at: cores must be positive";
  if cores = 1 then 1.
  else mean_of d /. Min_dist.expectation d ~n:cores

let curve d ~cores = List.map (fun n -> { cores = n; speedup = at d ~cores:n }) cores

let has_curve (d : Distribution.t) =
  fst d.Distribution.support >= 0. && Float.is_finite d.Distribution.mean

let limit (d : Distribution.t) =
  if not (has_curve d) then
    invalid_arg
      (Printf.sprintf
         "Speedup.limit: %s has no speed-up curve (it needs a nonnegative \
          support and a finite mean)"
         (Distribution.to_string d));
  let lo, _ = d.Distribution.support in
  if lo = 0. then infinity else d.Distribution.mean /. lo

let tangent_at_origin d =
  match Min_dist.exponential_params d with
  | Some (x0, rate) -> (x0 *. rate) +. 1.
  | None -> at d ~cores:2 -. 1.

let exponential_curve ~x0 ~rate ~cores =
  if rate <= 0. then invalid_arg "Speedup.exponential_curve: rate must be positive";
  if x0 < 0. then invalid_arg "Speedup.exponential_curve: x0 must be nonnegative";
  let ey = x0 +. (1. /. rate) in
  List.map
    (fun n ->
      if n <= 0 then invalid_arg "Speedup.exponential_curve: cores must be positive";
      let ez = x0 +. (1. /. (float_of_int n *. rate)) in
      { cores = n; speedup = ey /. ez })
    cores

let pp_point ppf p = Format.fprintf ppf "(%d, %.3f)" p.cores p.speedup
