type t = { xs : float array }

let of_array a =
  if Array.length a = 0 then invalid_arg "Empirical.of_array: empty sample";
  if Array.exists Float.is_nan a then
    invalid_arg "Empirical.of_array: NaN observation";
  let xs = Array.copy a in
  (* Float.compare's total order.  [Array.sort Float.compare] would box
     every element it compares (the generic sort reads through the
     polymorphic array primitives); [Float_sort] does not. *)
  Float_sort.sort xs;
  { xs }

let size t = Array.length t.xs
let sorted t = t.xs
let min t = t.xs.(0)
let max t = t.xs.(Array.length t.xs - 1)
let mean t = Summary.mean t.xs

let cdf t x =
  (* Binary search: count of observations <= x. *)
  let xs = t.xs in
  let n = Array.length xs in
  if x < xs.(0) then 0.
  else if x >= xs.(n - 1) then 1.
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* Invariant: xs.(lo) <= x < xs.(hi). *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    float_of_int (!lo + 1) /. float_of_int n
  end

let quantile t p = Summary.quantile t.xs p

let resample t rng n =
  let sz = size t in
  Array.init n (fun _ -> t.xs.(Rng.int rng sz))

let min_of_draws t rng n =
  if n <= 0 then invalid_arg "Empirical.min_of_draws: n must be positive";
  let sz = size t in
  let m = ref t.xs.(Rng.int rng sz) in
  for _ = 2 to n do
    let x = t.xs.(Rng.int rng sz) in
    if x < !m then m := x
  done;
  !m

let expected_min_exact t n =
  if n <= 0 then invalid_arg "Empirical.expected_min_exact: n must be positive";
  let xs = t.xs in
  let sz = Array.length xs in
  let fn = float_of_int n and fsz = float_of_int sz in
  (* P[min = x_(i)] = ((N-i+1)/N)^n - ((N-i)/N)^n for the i-th order statistic
     (1-based, ties handled implicitly by summing over positions).  The
     subtracted power of one term is the leading power of the next, so it
     is carried over; the first leading power is (N/N)^n = 1. *)
  let acc = ref 0. and pa = ref 1. in
  for i = 1 to sz do
    let b = float_of_int (sz - i) /. fsz in
    let pb = if b > 0. then exp (fn *. log b) else 0. in
    acc := !acc +. ((!pa -. pb) *. xs.(i - 1));
    pa := pb
  done;
  !acc

let to_distribution t =
  let n = size t in
  let lo = min t and hi = max t in
  Distribution.make ~name:"empirical"
    ~params:[ ("n", float_of_int n) ]
    ~support:(lo, hi)
    ~pdf:(fun _ -> nan)
    ~cdf:(cdf t)
    ~quantile:(quantile t)
    ~sample:(fun rng -> t.xs.(Rng.int rng n))
    ~mean:(mean t)
    ~variance:(Summary.variance t.xs)
    ()
