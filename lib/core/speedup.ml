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

let limit (d : Distribution.t) =
  let mean = mean_of d in
  let lo, _ = d.Distribution.support in
  if not (Float.is_finite lo) || lo < 0. then
    invalid_arg "Speedup.limit: runtime law must have nonnegative support";
  if lo = 0. then infinity else mean /. lo

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

let efficiency d ~cores = at d ~cores /. float_of_int cores

let cores_for_efficiency ?(max_cores = 1 lsl 20) d ~threshold =
  if not (threshold > 0. && threshold <= 1.) then
    invalid_arg "Speedup.cores_for_efficiency: threshold must lie in (0, 1]";
  if max_cores < 1 then
    invalid_arg "Speedup.cores_for_efficiency: max_cores must be positive";
  if efficiency d ~cores:max_cores >= threshold then max_cores
  else begin
    (* Efficiency is nonincreasing in n (E[Z^(n)] can shrink at most like
       1/n), so binary search for the last n meeting the threshold. *)
    let lo = ref 1 and hi = ref max_cores in
    (* Invariant: eff(lo) >= threshold > eff(hi). *)
    while !hi - !lo > 1 do
      let mid = !lo + ((!hi - !lo) / 2) in
      if efficiency d ~cores:mid >= threshold then lo := mid else hi := mid
    done;
    !lo
  end

let pp_point ppf p = Format.fprintf ppf "(%d, %.3f)" p.cores p.speedup
