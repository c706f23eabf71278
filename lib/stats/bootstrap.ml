type interval = { estimate : float; lo : float; hi : float; level : float }

let check_level level =
  if not (level > 0. && level < 1.) then
    invalid_arg "Bootstrap: level must lie in (0, 1)"

(* Type-7 quantile on an array already sorted with [Float.compare].  NaN
   statistics sort last under that total order, so enough of them push the
   upper percentile (and then the lower) to NaN — the degeneracy stays
   visible in the interval instead of scrambling the sort. *)
let sorted_quantile sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float (floor h) in
    let i = if i >= n - 1 then n - 2 else i in
    let frac = h -. float_of_int i in
    sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let percentile_interval ?(level = 0.95) ~estimate stats =
  check_level level;
  if Array.length stats = 0 then
    invalid_arg "Bootstrap.percentile_interval: no replicate statistics";
  let sorted = Array.copy stats in
  Float_sort.sort sorted;
  let alpha = (1. -. level) /. 2. in
  {
    estimate;
    lo = sorted_quantile sorted alpha;
    hi = sorted_quantile sorted (1. -. alpha);
    level;
  }

let covers i x = i.lo <= x && x <= i.hi

let pp_interval ppf i =
  Format.fprintf ppf "%.4g [%.4g, %.4g]@%.0f%%" i.estimate i.lo i.hi (100. *. i.level)
