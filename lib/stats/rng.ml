(* xoshiro256** by Blackman & Vigna, seeded with splitmix64.  Both are
   public-domain reference algorithms.  The four state words live in a
   32-byte buffer read and written with the unboxed 64-bit bytes primitives,
   so a draw keeps its intermediates in registers and [int] allocates
   nothing.  [uniform] is inlined so that a caller that only compares its
   result boxes no float, and seeding computes each splitmix64 output from
   the seed directly, so it boxes nothing either. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] ( <<< ) x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The k-th splitmix64 output from [seed] mixes [seed + k * golden]. *)
let[@inline] splitmix64 seed k =
  let z = Int64.add seed (Int64.mul (Int64.of_int k) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let of_seed64 seed =
  let s0 = splitmix64 seed 1 and s1 = splitmix64 seed 2 in
  let s2 = splitmix64 seed 3 and s3 = splitmix64 seed 4 in
  (* xoshiro must not start in the all-zero state; splitmix64 output makes
     this essentially impossible, but guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let create ~seed = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul ((Int64.mul s1 5L) <<< 7) 9L in
  let x = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 8 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 16 (Int64.logxor s2 x);
  set t 24 (s3 <<< 45);
  result

let bits64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 63 bits to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int b) 1L in
  let r = ref (Int64.shift_right_logical (next t) 1) in
  let v = ref (Int64.rem !r b) in
  while Int64.sub !r !v > limit do
    r := Int64.shift_right_logical (next t) 1;
    v := Int64.rem !r b
  done;
  Int64.to_int !v

let[@inline] uniform t =
  (* 53 random bits scaled to [0,1). *)
  let r = Int64.shift_right_logical (next t) 11 in
  Int64.to_float r *. 0x1.0p-53

let rec uniform_pos t =
  let u = uniform t in
  if u > 0. then u else uniform_pos t

let float t bound = uniform t *. bound

let rec normal t =
  let u = (2. *. uniform t) -. 1. in
  let v = (2. *. uniform t) -. 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then normal t
  else u *. sqrt (-2. *. log s /. s)

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log (uniform_pos t) /. rate

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. normal t))

let shuffle_prefix t a k =
  for i = k - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_prefix t a n;
  a
