type interval = { estimate : float; lo : float; hi : float; level : float }

let check_level level =
  if not (level > 0. && level < 1.) then
    invalid_arg "Bootstrap: level must lie in (0, 1)"

let percentile_interval ?(level = 0.95) ~estimate stats =
  check_level level;
  if Array.length stats = 0 then
    invalid_arg "Bootstrap.percentile_interval: no replicate statistics";
  let sorted = Array.copy stats in
  (* [Float.compare]'s order puts NaN statistics first, so they show in
     [lo] (then [hi]) instead of scrambling the sort. *)
  Float_sort.sort sorted;
  let alpha = (1. -. level) /. 2. in
  {
    estimate;
    lo = Summary.sorted_quantile sorted alpha;
    hi = Summary.sorted_quantile sorted (1. -. alpha);
    level;
  }

let covers i x = i.lo <= x && x <= i.hi

let pp_interval ppf i =
  Format.fprintf ppf "%.4g [%.4g, %.4g]@%.0f%%" i.estimate i.lo i.hi (100. *. i.level)
