type t = {
  count : int;
  min : float;
  max : float;
  mean : float;
  median : float;
  variance : float;
  std : float;
  skewness : float;
  kurtosis : float;
}

let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let mean xs =
  check_nonempty "Summary.mean" xs;
  (* Kahan summation: campaigns can mix 1e3 and 1e9 iteration counts. *)
  let sum = ref 0. and comp = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let y = xs.(i) -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t
  done;
  !sum /. float_of_int (Array.length xs)

let central_moment xs ~mean:m k =
  let acc = ref 0. in
  Array.iter (fun x -> acc := !acc +. ((x -. m) ** float_of_int k)) xs;
  !acc /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Summary.variance" xs;
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let std xs = sqrt (variance xs)

let sorted_quantile sorted p =
  check_nonempty "Summary.quantile" sorted;
  if p < 0. || p > 1. then invalid_arg "Summary.quantile: p must lie in [0, 1]";
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float (floor h) in
    let i = if i >= n - 1 then n - 2 else i in
    let frac = h -. float_of_int i in
    sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let quantile xs p =
  let sorted = Array.copy xs in
  (* Float.compare's total order (NaN before every number), without the
     boxing of [Array.sort Float.compare]. *)
  Float_sort.sort sorted;
  sorted_quantile sorted p

let median xs = quantile xs 0.5

let of_array xs =
  check_nonempty "Summary.of_array" xs;
  let n = Array.length xs in
  let m = mean xs in
  let var = variance xs in
  let sd = sqrt var in
  let mu2 = central_moment xs ~mean:m 2 in
  let skewness, kurtosis =
    if mu2 <= 0. then (0., 0.)
    else begin
      let mu3 = central_moment xs ~mean:m 3 in
      let mu4 = central_moment xs ~mean:m 4 in
      (mu3 /. (mu2 ** 1.5), (mu4 /. (mu2 *. mu2)) -. 3.)
    end
  in
  {
    count = n;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
    mean = m;
    median = median xs;
    variance = var;
    std = sd;
    skewness;
    kurtosis;
  }

let pp ppf t =
  Format.fprintf ppf
    "n=%d min=%g mean=%g median=%g max=%g std=%g skew=%.3f kurt=%.3f" t.count
    t.min t.mean t.median t.max t.std t.skewness t.kurtosis
