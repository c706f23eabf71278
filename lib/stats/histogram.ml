type t = { lo : float; width : float; counts : int array; total : int }

type binning = Bins of int | Sturges | Freedman_diaconis

let sturges_bins n = 1 + int_of_float (ceil (log (float_of_int n) /. log 2.))

let choose_bins binning xs range =
  let n = Array.length xs in
  match binning with
  | Bins k ->
    if k <= 0 then invalid_arg "Histogram.make: bin count must be positive";
    k
  | Sturges -> sturges_bins n
  | Freedman_diaconis ->
    let iqr = Summary.quantile xs 0.75 -. Summary.quantile xs 0.25 in
    if iqr <= 0. || range <= 0. then sturges_bins n
    else begin
      let width = 2. *. iqr /. (float_of_int n ** (1. /. 3.)) in
      let k = int_of_float (ceil (range /. width)) in
      Int.max 1 (Int.min k 200)
    end

let make ?(binning = Freedman_diaconis) xs =
  if Array.length xs = 0 then invalid_arg "Histogram.make: empty sample";
  let lo = Array.fold_left Float.min xs.(0) xs in
  let hi = Array.fold_left Float.max xs.(0) xs in
  let range = hi -. lo in
  if range <= 0. then { lo; width = 1.; counts = [| Array.length xs |]; total = Array.length xs }
  else begin
    let k = choose_bins binning xs range in
    let width = range /. float_of_int k in
    let counts = Array.make k 0 in
    Array.iter
      (fun x ->
        let i = int_of_float ((x -. lo) /. width) in
        let i = if i >= k then k - 1 else if i < 0 then 0 else i in
        counts.(i) <- counts.(i) + 1)
      xs;
    { lo; width; counts; total = Array.length xs }
  end

let n_bins t = Array.length t.counts
let bin_center t i = t.lo +. ((float_of_int i +. 0.5) *. t.width)

let density t i =
  float_of_int t.counts.(i) /. (float_of_int t.total *. t.width)

let render ?(max_width = 60) ?pdf t =
  let buf = Buffer.create 1024 in
  let dmax = Array.fold_left (fun acc i -> Float.max acc i) 0. (Array.init (n_bins t) (density t)) in
  let dmax = if dmax <= 0. then 1. else dmax in
  for i = 0 to n_bins t - 1 do
    let d = density t i in
    let bar = int_of_float (float_of_int max_width *. d /. dmax) in
    Buffer.add_string buf (Printf.sprintf "%14.4g | %s" (bin_center t i) (String.make bar '#'));
    (match pdf with
    | None -> ()
    | Some f ->
      Buffer.add_string buf
        (Printf.sprintf "%s  obs=%.3e fit=%.3e" (String.make (Int.max 0 (max_width - bar)) ' ')
           d (f (bin_center t i))));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
