type t = { xs : float array }

let of_array a =
  if Array.length a = 0 then invalid_arg "Empirical.of_array: empty sample";
  for i = 0 to Array.length a - 1 do
    if Float.is_nan a.(i) then invalid_arg "Empirical.of_array: NaN observation"
  done;
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

let quantile t p = Summary.sorted_quantile t.xs p

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

let expected_min_table t ns =
  List.iter
    (fun n ->
      if n <= 0 then invalid_arg "Empirical.expected_min_table: n must be positive")
    ns;
  let xs = t.xs in
  let sz = Array.length xs in
  let fsz = float_of_int sz in
  (* P[min = x_(i)] = ((N-i+1)/N)^n - ((N-i)/N)^n for the i-th order statistic
     (1-based, ties handled implicitly by summing over positions).  The
     subtracted power of one term is the leading power of the next, so it
     is carried over; the first leading power is (N/N)^n = 1.  Each power is
     [exp (n log b)] with [b = (N-i)/N]; the logs do not depend on [n], so
     one table serves every [n].  The last is [log 0 = neg_infinity], whose
     power is exactly 0. *)
  let logs = Array.make sz 0. in
  for k = 0 to sz - 1 do
    logs.(k) <- log (float_of_int (sz - 1 - k) /. fsz)
  done;
  List.map
    (fun n ->
      let fn = float_of_int n in
      let acc = ref 0. and pa = ref 1. in
      for i = 0 to sz - 1 do
        let pb = exp (fn *. logs.(i)) in
        acc := !acc +. ((!pa -. pb) *. xs.(i));
        pa := pb
      done;
      !acc)
    ns

let expected_min_exact t n =
  if n <= 0 then invalid_arg "Empirical.expected_min_exact: n must be positive";
  List.hd (expected_min_table t [ n ])
