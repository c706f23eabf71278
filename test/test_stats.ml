(* Tests for the statistics substrate: special functions against published
   reference values, distribution laws against closed forms and Monte Carlo,
   quadrature and root finding against analytic integrals/roots, the KS test
   against known quantiles, estimators on synthetic data, and order
   statistics against their closed-form oracles. *)

open Lv_stats

let check_float ?(eps = 1e-10) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let rel_err expected actual =
  if expected = 0. then abs_float actual else abs_float ((actual -. expected) /. expected)

let check_rel ?(tol = 1e-9) name expected actual =
  if rel_err expected actual > tol then
    Alcotest.failf "%s: expected %.15g, got %.15g (rel err %.3g > %.3g)" name
      expected actual (rel_err expected actual) tol

(* ------------------------------------------------------------------ *)
(* Special functions                                                   *)
(* ------------------------------------------------------------------ *)

(* Reference values: Abramowitz & Stegun tables / Wolfram Alpha, 15 digits. *)
let test_erf_values () =
  check_float ~eps:1e-13 "erf 0" 0. (Special.erf 0.);
  check_rel ~tol:1e-12 "erf 0.5" 0.520499877813047 (Special.erf 0.5);
  check_rel ~tol:1e-12 "erf 1" 0.842700792949715 (Special.erf 1.);
  check_rel ~tol:1e-12 "erf 2" 0.995322265018953 (Special.erf 2.);
  check_rel ~tol:1e-12 "erf -1" (-0.842700792949715) (Special.erf (-1.));
  check_rel ~tol:1e-10 "erf 3.5" 0.999999256901628 (Special.erf 3.5)

let test_erfc_values () =
  check_rel ~tol:1e-11 "erfc 1" 0.157299207050285 (Special.erfc 1.);
  check_rel ~tol:1e-11 "erfc 2" 4.67773498104727e-3 (Special.erfc 2.);
  check_rel ~tol:1e-10 "erfc 5" 1.53745979442803e-12 (Special.erfc 5.);
  check_rel ~tol:1e-9 "erfc 10" 2.08848758376254e-45 (Special.erfc 10.);
  check_rel ~tol:1e-11 "erfc -1" 1.842700792949715 (Special.erfc (-1.));
  check_float ~eps:1e-13 "erfc 0" 1. (Special.erfc 0.)

let test_erf_erfc_complement () =
  List.iter
    (fun x ->
      check_rel ~tol:1e-12
        (Printf.sprintf "erf+erfc at %g" x)
        1.
        (Special.erf x +. Special.erfc x))
    [ 0.1; 0.5; 1.0; 1.7; 2.5 ]

let test_erfc_inv () =
  List.iter
    (fun y ->
      check_rel ~tol:1e-10
        (Printf.sprintf "erfc (erfc_inv %g)" y)
        y
        (Special.erfc (Special.erfc_inv y)))
    [ 0.01; 0.1; 0.5; 1.0; 1.5; 1.9 ]

let test_log_gamma () =
  check_float ~eps:1e-12 "lgamma 1" 0. (Special.log_gamma 1.);
  check_float ~eps:1e-12 "lgamma 2" 0. (Special.log_gamma 2.);
  check_rel ~tol:1e-13 "lgamma 5" (log 24.) (Special.log_gamma 5.);
  check_rel ~tol:1e-13 "lgamma 10" (log 362880.) (Special.log_gamma 10.);
  (* Γ(1/2) = √π. *)
  check_rel ~tol:1e-12 "lgamma 0.5" (log (sqrt Float.pi)) (Special.log_gamma 0.5);
  (* Reflection-formula regime. *)
  check_rel ~tol:1e-10 "lgamma 0.1" 2.252712651734206 (Special.log_gamma 0.1);
  (* Γ(6.3) via the recurrence from Γ(1.3) = 0.897470696306277. *)
  check_rel ~tol:1e-9 "gamma 6.3"
    (5.3 *. 4.3 *. 3.3 *. 2.3 *. 1.3 *. 0.897470696306277)
    (Special.gamma 6.3)

let test_gamma_p_q () =
  (* P(1, x) = 1 - e^-x. *)
  List.iter
    (fun x ->
      check_rel ~tol:1e-12
        (Printf.sprintf "P(1,%g)" x)
        (1. -. exp (-.x))
        (Special.gamma_p 1. x))
    [ 0.1; 1.0; 3.0; 10.0 ];
  (* P(a,x) + Q(a,x) = 1. *)
  List.iter
    (fun (a, x) ->
      check_rel ~tol:1e-12
        (Printf.sprintf "P+Q(%g,%g)" a x)
        1.
        (Special.gamma_p a x +. Special.gamma_q a x))
    [ (0.5, 0.2); (2.0, 3.0); (7.5, 4.0); (3.0, 20.0) ];
  check_rel ~tol:1e-11 "P(3,2)" 0.32332358381693654 (Special.gamma_p 3. 2.);
  check_float ~eps:1e-15 "P(2,0)" 0. (Special.gamma_p 2. 0.);
  check_float ~eps:1e-15 "Q(2,0)" 1. (Special.gamma_q 2. 0.)

let test_digamma () =
  (* ψ(1) = -γ. *)
  check_rel ~tol:1e-9 "digamma 1" (-0.5772156649015329) (Special.digamma 1.);
  (* ψ(x+1) = ψ(x) + 1/x. *)
  List.iter
    (fun x ->
      check_rel ~tol:1e-10
        (Printf.sprintf "digamma recurrence %g" x)
        (Special.digamma x +. (1. /. x))
        (Special.digamma (x +. 1.)))
    [ 0.3; 1.5; 4.2 ];
  check_rel ~tol:1e-9 "digamma 10" 2.2517525890667214 (Special.digamma 10.)

let test_norm_cdf_quantile () =
  check_float ~eps:1e-14 "Phi 0" 0.5 (Special.norm_cdf 0.);
  check_rel ~tol:1e-12 "Phi 1.96" 0.9750021048517795 (Special.norm_cdf 1.96);
  check_rel ~tol:1e-12 "Phi -1" 0.158655253931457 (Special.norm_cdf (-1.));
  List.iter
    (fun p ->
      check_rel ~tol:1e-11
        (Printf.sprintf "Phi(quantile %g)" p)
        p
        (Special.norm_cdf (Special.norm_quantile p)))
    [ 1e-10; 1e-4; 0.01; 0.3; 0.5; 0.77; 0.99; 1. -. 1e-9 ]

(* Past |x| = 26 the functions return their limits, so x² no longer reaches
   infinity, where the continued fraction would give NaN. *)
let test_special_extreme_arguments () =
  let exact name expected actual =
    Alcotest.(check (float 0.)) name expected actual
  in
  List.iter
    (fun (x, erf, erfc, phi) ->
      exact (Printf.sprintf "erf %g" x) erf (Special.erf x);
      exact (Printf.sprintf "erfc %g" x) erfc (Special.erfc x);
      exact (Printf.sprintf "norm_cdf %g" x) phi (Special.norm_cdf x))
    [
      (infinity, 1., 0., 1.);
      (neg_infinity, -1., 2., 0.);
      (1e200, 1., 0., 1.);
      (-1e200, -1., 2., 0.);
    ];
  exact "lognormal cdf at infinity" 1.
    ((Lognormal.create ~mu:2. ~sigma:0.7).Distribution.cdf infinity);
  let normal = Normal.create ~mu:3. ~sigma:2. in
  exact "normal cdf at infinity" 1. (normal.Distribution.cdf infinity);
  exact "normal cdf at -infinity" 0. (normal.Distribution.cdf neg_infinity);
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " nan is nan") true (Float.is_nan (f nan)))
    [ ("erf", Special.erf); ("erfc", Special.erfc); ("norm_cdf", Special.norm_cdf) ]

(* The series and the continued fraction keep their floats unboxed: what a
   call allocates is its argument and result boxes, not one box per term. *)
let test_erfc_allocation () =
  let calls = 100_000 in
  let xs = Array.init calls (fun i -> (8. *. float_of_int i /. float_of_int calls) -. 4.) in
  let acc = ref 0. in
  let before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    acc := !acc +. Special.erfc xs.(i)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "erfc sums to about one per call" true
    (abs_float ((!acc /. float_of_int calls) -. 1.) < 1e-3);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per erfc call (at most 10)"
       (words /. float_of_int calls))
    true
    (words <= 10. *. float_of_int calls)

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "stream %d" i)
      (Rng.bits64 a) (Rng.bits64 b)
  done;
  let c = Rng.create ~seed:124 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 c)

let test_rng_copy () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy tracks" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_uniform_range () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let u = Rng.uniform rng in
    if not (u >= 0. && u < 1.) then Alcotest.failf "uniform out of range: %g" u
  done

let test_rng_int_uniformity () =
  let rng = Rng.create ~seed:11 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Rng.int rng 10 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = float_of_int n /. 10. in
      if abs_float (float_of_int c -. expected) > 5. *. sqrt expected then
        Alcotest.failf "bucket %d count %d too far from %g" i c expected)
    counts

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let k = Rng.int rng 7 in
    if k < 0 || k >= 7 then Alcotest.failf "int out of bounds: %d" k
  done;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_normal_moments () =
  let rng = Rng.create ~seed:13 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Rng.normal rng) in
  let m = Summary.mean xs and sd = Summary.std xs in
  if abs_float m > 0.01 then Alcotest.failf "normal mean %g too far from 0" m;
  if abs_float (sd -. 1.) > 0.01 then Alcotest.failf "normal std %g too far from 1" sd

let test_rng_exponential_moments () =
  let rng = Rng.create ~seed:17 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Rng.exponential rng ~rate:2.) in
  let m = Summary.mean xs in
  if abs_float (m -. 0.5) > 0.01 then Alcotest.failf "exponential mean %g too far from 0.5" m

let test_rng_permutation () =
  let rng = Rng.create ~seed:19 in
  let p = Rng.permutation rng 100 in
  let seen = Array.make 100 false in
  Array.iter
    (fun v ->
      if v < 0 || v >= 100 || seen.(v) then Alcotest.fail "not a permutation";
      seen.(v) <- true)
    p

(* Known answers: the generator's exact output streams.  Any change to the
   state layout or arithmetic must reproduce these words bit for bit, since
   every dataset in the repository is a function of them. *)
let test_rng_known_answers () =
  List.iter
    (fun (seed, words) ->
      let rng = Rng.create ~seed in
      Array.iteri
        (fun k w ->
          Alcotest.(check int64) (Printf.sprintf "seed %d word %d" seed k) w (Rng.bits64 rng))
        words)
    [
      ( 0,
        [|
          -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
          7684712102626143532L; -4925340083591827879L; -4640532413560118L;
          7788427924976520344L; -8565655843838424513L; -2665238125909665999L;
          -1496805473226810819L; 2108416074180405844L; 1240209487116192693L;
          1967799970308132508L; -6367204219010229377L; 9150657576430337180L;
          5466973851375020728L
        |] );
      ( 1,
        [|
          -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
          7218738570589545383L; -5586072249713871245L; 2648436617965840162L;
          1310552918490157286L; 7031611932980406429L; -2450604114301859295L;
          -8269493420433231408L; -1243818904632809775L; -789185526487324506L;
          -1240124777327507215L; -6104086970642308043L; -7379925978354512425L;
          -2019138639151131867L
        |] );
      ( 123,
        [|
          3628370374969813497L; -561292132998099618L; 8622752019489400367L;
          2342437615205057030L; 6230968350287952094L; -1710872939911062L;
          6972174322906985755L; -6333738554522461611L; -4408176657788248108L;
          8031771363777928304L; -6415492878863288390L; -4323378339223746483L;
          697772660079143621L; 5876297670408615156L; -6265409380721734544L;
          3423084930429465363L
        |] );
    ];
  let draws f =
    let rng = Rng.create ~seed:42 in
    Array.init 16 (fun _ -> f rng)
  in
  Alcotest.(check (array int)) "int 7"
    [|
      1; 4; 2; 5; 2; 4; 1; 3; 6; 2; 6; 6; 1; 6; 2; 1
    |]
    (draws (fun r -> Rng.int r 7));
  Alcotest.(check (array int)) "int 1000"
    [|
      371; 551; 504; 96; 738; 292; 377; 203; 479; 542; 824; 946; 555; 521;
      646; 685
    |]
    (draws (fun r -> Rng.int r 1000));
  Alcotest.(check (array int)) "int max_int"
    [|
      773499382201279371; 3495475846482271551; 1660607362696891601;
      3917101036163674193; 4536090470605270835; 2487907396605487389;
      2022303436039712474; 3228258094231519300; 2410753156918784576;
      768761692723076639; 1682830695628020921; 2681029139591840946;
      2776459088241058652; 2964499071040623521; 1947514497483424743;
      3484287702129654782
    |]
    (draws (fun r -> Rng.int r max_int));
  Alcotest.(check (array int)) "int 1" (Array.make 16 0) (draws (fun r -> Rng.int r 1));
  (* Bound 1 still consumes one word: every other [int 1000] answer above. *)
  Alcotest.(check (array int)) "int 1 then int 1000"
    [|
      551; 96; 292; 203; 542; 946; 521; 685; 778; 949; 997; 307; 944; 892;
      805; 541
    |]
    (draws (fun r ->
         ignore (Rng.int r 1);
         Rng.int r 1000));
  Alcotest.(check (array int)) "int 64"
    [| 11; 63; 16; 16; 50; 28; 25; 3; 63; 30; 56; 50; 27; 33; 38; 61 |]
    (draws (fun r -> Rng.int r 64));
  Alcotest.(check (array int)) "int 2^40"
    [|
      648642257803; 838433545535; 657615637712; 702258196560; 274633994034;
      654994876700; 286373637849; 695616077891; 245740843583; 754768141854;
      661526158520; 877143770290; 913083425627; 218277483425; 128738673638;
      224893549565
    |]
    (draws (fun r -> Rng.int r (1 lsl 40)));
  Alcotest.(check (array (float 0.))) "uniform"
    [|
      0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1;
      0x1.d9715a8e0766cp-1; 0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1;
      0x1.7042a90ab4cbbp-1; 0x1.b3344e87d7ccp-1; 0x1.85d2dce4dd2ecp-1;
      0x1.2aacc2beeebf7p-1; 0x1.5d6a766818207p-1; 0x1.29a76e61cebe2p-2;
      0x1.9a1fdb52600d8p-1; 0x1.4920219692d08p-2; 0x1.6c1bd877e5b1p-1;
      0x1.c16ab4d172ccep-1
    |]
    (draws Rng.uniform);
  Alcotest.(check (array (array int))) "permutation 12"
    [|
      [| 1; 0; 7; 6; 11; 5; 10; 8; 2; 4; 9; 3 |];
      [| 4; 8; 7; 9; 2; 10; 0; 5; 3; 1; 11; 6 |];
      [| 8; 4; 5; 7; 0; 9; 1; 11; 3; 6; 2; 10 |];
      [| 7; 4; 3; 2; 6; 10; 11; 9; 1; 0; 8; 5 |];
      [| 1; 8; 2; 0; 10; 3; 6; 4; 9; 5; 7; 11 |];
      [| 5; 7; 8; 10; 2; 1; 4; 9; 6; 0; 11; 3 |];
      [| 6; 5; 1; 2; 11; 0; 8; 3; 9; 10; 7; 4 |];
      [| 2; 7; 1; 9; 4; 5; 10; 6; 3; 0; 11; 8 |];
      [| 7; 6; 1; 2; 5; 3; 8; 9; 10; 4; 0; 11 |];
      [| 1; 5; 11; 9; 4; 6; 3; 2; 0; 7; 8; 10 |];
      [| 2; 8; 11; 6; 5; 0; 7; 4; 3; 9; 10; 1 |];
      [| 11; 6; 3; 9; 0; 1; 5; 7; 4; 8; 2; 10 |];
      [| 5; 1; 11; 3; 0; 6; 8; 7; 9; 4; 2; 10 |];
      [| 8; 2; 0; 10; 4; 6; 5; 3; 7; 1; 11; 9 |];
      [| 9; 8; 4; 3; 1; 2; 10; 7; 6; 5; 0; 11 |];
      [| 8; 5; 4; 7; 6; 3; 10; 9; 1; 0; 2; 11 |];
    |]
    (draws (fun r -> Rng.permutation r 12))

(* ------------------------------------------------------------------ *)
(* Quadrature and root finding                                         *)
(* ------------------------------------------------------------------ *)

let test_simpson_polynomials () =
  check_rel ~tol:1e-12 "int x^2 [0,1]" (1. /. 3.)
    (Quadrature.simpson_adaptive (fun x -> x *. x) ~lo:0. ~hi:1.);
  check_rel ~tol:1e-10 "int sin [0,pi]" 2.
    (Quadrature.simpson_adaptive sin ~lo:0. ~hi:Float.pi);
  check_rel ~tol:1e-10 "int e^x [0,2]" (exp 2. -. 1.)
    (Quadrature.simpson_adaptive exp ~lo:0. ~hi:2.);
  check_float ~eps:1e-15 "empty interval" 0.
    (Quadrature.simpson_adaptive exp ~lo:1. ~hi:1.)

let test_gauss_legendre () =
  check_rel ~tol:1e-12 "GL x^6 [-1,1]" (2. /. 7.)
    (Quadrature.gauss_legendre (fun x -> x ** 6.) ~lo:(-1.) ~hi:1.);
  check_rel ~tol:1e-12 "GL cos [0,1]" (sin 1.)
    (Quadrature.gauss_legendre cos ~lo:0. ~hi:1.);
  check_rel ~tol:1e-12 "GL order 8 cubic exact" 0.25
    (Quadrature.gauss_legendre ~order:8 (fun x -> x ** 3.) ~lo:0. ~hi:1.)

let test_gauss_tables_match_newton () =
  (* The tables of the orders production uses are built once, at module
     initialisation, and shared by every domain: they must hold the same
     bits as a fresh Newton construction, and what [gauss_nodes] hands out
     must be a copy that cannot reach them. *)
  let same_bits a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
         a b
  in
  List.iter
    (fun order ->
      let x, w = Quadrature.gauss_nodes order in
      let x', w' = Quadrature.newton_nodes order in
      Alcotest.(check bool) (Printf.sprintf "order %d nodes" order) true (same_bits x x');
      Alcotest.(check bool) (Printf.sprintf "order %d weights" order) true (same_bits w w');
      x.(0) <- 0.;
      w.(0) <- 0.;
      let x, w = Quadrature.gauss_nodes order in
      Alcotest.(check bool)
        (Printf.sprintf "order %d table untouched by a caller's writes" order)
        true
        (same_bits x x' && same_bits w w'))
    [ 48; 320 ]

let test_integrate_decaying () =
  check_rel ~tol:1e-8 "decaying e^-x" 1.
    (Quadrature.integrate_decaying (fun x -> exp (-.x)) ~lo:0.);
  (* Gaussian integral: int e^(-x^2/2) [0,inf) = sqrt(pi/2). *)
  check_rel ~tol:1e-8 "decaying gaussian" (sqrt (Float.pi /. 2.))
    (Quadrature.integrate_decaying (fun x -> exp (-.x *. x /. 2.)) ~lo:0.);
  (* Slow decay: needs many geometric panels to accumulate. *)
  check_rel ~tol:1e-8 "slow decay" 500.
    (Quadrature.integrate_decaying (fun x -> exp (-.x /. 500.)) ~lo:0.)

let test_brent () =
  check_rel ~tol:1e-11 "brent sqrt2" (sqrt 2.)
    (Rootfind.brent (fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2.);
  check_rel ~tol:1e-11 "brent cos" (Float.pi /. 2.)
    (Rootfind.brent cos ~lo:1. ~hi:2.);
  Alcotest.check_raises "brent needs bracket"
    (Invalid_argument "Rootfind.brent: interval does not bracket a root")
    (fun () -> ignore (Rootfind.brent (fun x -> x +. 10.) ~lo:0. ~hi:1.))

(* ------------------------------------------------------------------ *)
(* Summary / Histogram                                                 *)
(* ------------------------------------------------------------------ *)

let test_summary_basic () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let s = Summary.of_array xs in
  check_float ~eps:1e-12 "mean" 3. s.Summary.mean;
  check_float ~eps:1e-12 "median" 3. s.Summary.median;
  check_float ~eps:1e-12 "min" 1. s.Summary.min;
  check_float ~eps:1e-12 "max" 5. s.Summary.max;
  check_float ~eps:1e-12 "variance" 2.5 s.Summary.variance;
  Alcotest.(check int) "count" 5 s.Summary.count

let test_summary_quantile () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  check_float ~eps:1e-12 "q0" 10. (Summary.quantile xs 0.);
  check_float ~eps:1e-12 "q1" 40. (Summary.quantile xs 1.);
  check_float ~eps:1e-12 "q0.5 interpolates" 25. (Summary.quantile xs 0.5);
  (* type-7: h = p(n-1). p=0.25 -> h=0.75 -> between 10 and 20 at 0.75 *)
  check_float ~eps:1e-12 "q0.25" 17.5 (Summary.quantile xs 0.25);
  let single = [| 42. |] in
  check_float ~eps:1e-12 "singleton" 42. (Summary.quantile single 0.3)

let test_summary_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Summary.mean: empty sample")
    (fun () -> ignore (Summary.mean [||]));
  Alcotest.check_raises "bad p"
    (Invalid_argument "Summary.quantile: p must lie in [0, 1]") (fun () ->
      ignore (Summary.quantile [| 1. |] 1.5))

let test_summary_skew_kurt () =
  (* Symmetric data: zero skewness. *)
  let s = Summary.of_array [| -2.; -1.; 0.; 1.; 2. |] in
  check_float ~eps:1e-12 "skew symmetric" 0. s.Summary.skewness;
  (* Exponential-ish data has positive skewness. *)
  let rng = Rng.create ~seed:23 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential rng ~rate:1.) in
  let s = Summary.of_array xs in
  if s.Summary.skewness < 1.5 then
    Alcotest.failf "exponential skewness %g, expected ~2" s.Summary.skewness

let test_histogram_density_integrates () =
  let rng = Rng.create ~seed:29 in
  let xs = Array.init 5000 (fun _ -> Rng.normal rng) in
  let h = Histogram.make xs in
  let total =
    Array.init (Histogram.n_bins h) (fun i -> Histogram.density h i *. h.Histogram.width)
    |> Array.fold_left ( +. ) 0.
  in
  check_rel ~tol:1e-9 "densities integrate to 1" 1. total

let test_histogram_binning_modes () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let h = Histogram.make ~binning:(Histogram.Bins 10) xs in
  Alcotest.(check int) "explicit bins" 10 (Histogram.n_bins h);
  Array.iter (fun c -> Alcotest.(check int) "balanced" 10 c) h.Histogram.counts;
  let h = Histogram.make ~binning:Histogram.Sturges xs in
  Alcotest.(check int) "sturges bins" 8 (Histogram.n_bins h);
  let degenerate = Histogram.make [| 5.; 5.; 5. |] in
  Alcotest.(check int) "degenerate sample 1 bin" 1 (Histogram.n_bins degenerate)

let test_histogram_edges () =
  let h = Histogram.make ~binning:(Histogram.Bins 4) [| 0.; 1.; 2.; 3.; 4. |] in
  check_float ~eps:1e-12 "first edge lo" 0. h.Histogram.lo;
  check_float ~eps:1e-12 "first edge hi" 1. (h.Histogram.lo +. h.Histogram.width);
  check_float ~eps:1e-12 "center" 0.5 (Histogram.bin_center h 0)

(* ------------------------------------------------------------------ *)
(* Distribution families                                               *)
(* ------------------------------------------------------------------ *)

let families_for_props =
  [
    ("exponential", Exponential.create ~rate:0.5);
    ("shifted-exponential", Exponential.shifted ~x0:10. ~rate:0.01);
    ("lognormal", Lognormal.create ~mu:2. ~sigma:0.7);
    ("shifted-lognormal", Lognormal.shifted ~x0:5. ~mu:1. ~sigma:0.5);
    ("normal", Normal.create ~mu:3. ~sigma:2.);
    ("truncated-normal", Normal.truncated_positive ~mu:1. ~sigma:2.);
    ("uniform", Uniform.create ~lo:2. ~hi:7.);
    ("weibull", Weibull.create ~shape:1.7 ~scale:3.);
    ("gamma", Gamma_dist.create ~shape:2.5 ~rate:0.8);
    ("levy", Levy.create ~scale:1.5);
  ]

let test_cdf_monotone_and_bounded () =
  List.iter
    (fun (name, d) ->
      let lo, hi = d.Distribution.support in
      let lo = if Float.is_finite lo then lo else -50. in
      let hi = if Float.is_finite hi then hi else 500. in
      let prev = ref (-0.0001) in
      for i = 0 to 200 do
        let x = lo +. ((hi -. lo) *. float_of_int i /. 200.) in
        let f = d.Distribution.cdf x in
        if f < 0. || f > 1. then Alcotest.failf "%s: cdf %g out of [0,1]" name f;
        if f < !prev -. 1e-12 then Alcotest.failf "%s: cdf not monotone at %g" name x;
        prev := f
      done)
    families_for_props

let test_quantile_inverts_cdf () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun p ->
          let x = d.Distribution.quantile p in
          let f = d.Distribution.cdf x in
          if abs_float (f -. p) > 1e-6 then
            Alcotest.failf "%s: cdf(quantile %g) = %g" name p f)
        [ 0.01; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99 ])
    families_for_props

let test_pdf_matches_cdf_derivative () =
  List.iter
    (fun (name, d) ->
      (* Central difference at a few interior quantiles. *)
      List.iter
        (fun p ->
          let x = d.Distribution.quantile p in
          let h = 1e-5 *. Float.max 1. (abs_float x) in
          let derivative =
            (d.Distribution.cdf (x +. h) -. d.Distribution.cdf (x -. h)) /. (2. *. h)
          in
          let pdf = d.Distribution.pdf x in
          if rel_err (Float.max derivative 1e-12) (Float.max pdf 1e-12) > 1e-3 then
            Alcotest.failf "%s: pdf %g vs d(cdf) %g at %g" name pdf derivative x)
        [ 0.2; 0.5; 0.8 ])
    families_for_props

let test_sample_mean_matches () =
  let rng = Rng.create ~seed:31 in
  List.iter
    (fun (name, d) ->
      if Float.is_nan d.Distribution.mean then ()
      else begin
        let n = 60_000 in
        let xs = Distribution.sample_array d rng n in
        let m = Summary.mean xs in
        let sd = sqrt d.Distribution.variance in
        let tolerance = 6. *. sd /. sqrt (float_of_int n) in
        if abs_float (m -. d.Distribution.mean) > tolerance then
          Alcotest.failf "%s: sample mean %g vs %g (tol %g)" name m
            d.Distribution.mean tolerance
      end)
    families_for_props

let test_closed_form_means () =
  check_rel ~tol:1e-12 "exp mean" 2. (Exponential.create ~rate:0.5).Distribution.mean;
  check_rel ~tol:1e-12 "shifted exp mean" 1100.
    (Exponential.shifted ~x0:100. ~rate:0.001).Distribution.mean;
  check_rel ~tol:1e-12 "lognormal mean"
    (exp (2. +. (0.7 *. 0.7 /. 2.)))
    (Lognormal.create ~mu:2. ~sigma:0.7).Distribution.mean;
  check_rel ~tol:1e-12 "uniform mean" 4.5 (Uniform.create ~lo:2. ~hi:7.).Distribution.mean;
  check_rel ~tol:1e-12 "gamma mean" 3.125
    (Gamma_dist.create ~shape:2.5 ~rate:0.8).Distribution.mean;
  Alcotest.(check bool) "levy mean undefined" true
    (Float.is_nan (Levy.create ~scale:1.).Distribution.mean)

let test_numeric_mean_cross_check () =
  List.iter
    (fun (name, d) ->
      if Float.is_nan d.Distribution.mean then ()
      else begin
        let numeric = Distribution.numeric_mean d in
        if rel_err d.Distribution.mean numeric > 1e-5 then
          Alcotest.failf "%s: closed mean %g vs numeric %g" name
            d.Distribution.mean numeric
      end)
    (List.filter (fun (n, _) -> n <> "normal") families_for_props)

let test_shift_properties () =
  let base = Exponential.create ~rate:0.1 in
  let shifted = Distribution.shift base 50. in
  check_rel ~tol:1e-12 "shift mean" (base.Distribution.mean +. 50.) shifted.Distribution.mean;
  check_rel ~tol:1e-12 "shift variance" base.Distribution.variance shifted.Distribution.variance;
  check_float ~eps:1e-12 "pdf below shift" 0. (shifted.Distribution.pdf 49.);
  check_rel ~tol:1e-12 "cdf translated" (base.Distribution.cdf 5.) (shifted.Distribution.cdf 55.);
  let same = Distribution.shift base 0. in
  Alcotest.(check string) "zero shift keeps name" "exponential" same.Distribution.name

let test_truncated_normal () =
  let d = Normal.truncated_positive ~mu:(-1.) ~sigma:1. in
  check_float ~eps:1e-12 "no mass below 0" 0. (d.Distribution.cdf (-0.5));
  check_rel ~tol:1e-9 "total mass" 1. (d.Distribution.cdf 100.);
  Alcotest.(check bool) "mean positive" true (d.Distribution.mean > 0.);
  (* Monte-Carlo mean check for a strongly truncated case. *)
  let rng = Rng.create ~seed:37 in
  let xs = Distribution.sample_array d rng 50_000 in
  if abs_float (Summary.mean xs -. d.Distribution.mean) > 0.02 then
    Alcotest.failf "truncated normal mean mismatch: %g vs %g" (Summary.mean xs)
      d.Distribution.mean

let test_levy_quantile () =
  let d = Levy.create ~scale:2. in
  List.iter
    (fun p ->
      check_rel ~tol:1e-9 (Printf.sprintf "levy cdf-quantile %g" p) p
        (d.Distribution.cdf (d.Distribution.quantile p)))
    [ 0.1; 0.5; 0.9 ]

let test_distribution_pp () =
  let d = Lognormal.shifted ~x0:10. ~mu:2. ~sigma:1. in
  let s = Distribution.to_string d in
  Alcotest.(check bool) "mentions family" true
    (String.length s > 0
    && String.sub s 0 (String.length "shifted-lognormal") = "shifted-lognormal");
  Alcotest.(check bool) "mentions shift" true
    (String.length s > String.length "shifted-lognormal");
  (* Zero shift keeps the bare family. *)
  Alcotest.(check string) "zero shift" "exponential"
    (Distribution.shift (Exponential.create ~rate:1.) 0.).Distribution.name

let test_min_of_weibull_is_weibull () =
  (* Closed-form closure property as a sampling cross-check: the min of n
     Weibull(k, s) draws is Weibull(k, s/n^(1/k)). *)
  let rng = Rng.create ~seed:139 in
  let d = Weibull.create ~shape:2. ~scale:10. in
  let reps = 30_000 and n = 5 in
  let acc = ref 0. in
  for _ = 1 to reps do
    let m = ref infinity in
    for _ = 1 to n do
      let x = d.Distribution.sample rng in
      if x < !m then m := x
    done;
    acc := !acc +. !m
  done;
  let mc = !acc /. float_of_int reps in
  let closed = Order_stats.weibull_expected_min ~shape:2. ~scale:10. n in
  if rel_err closed mc > 0.02 then Alcotest.failf "weibull min MC %g vs %g" mc closed

let test_mle_exponential_censored () =
  (* Exponential data cut at a budget: the censoring-aware estimator
     recovers the rate, the naive one overestimates it. *)
  let rng = Rng.create ~seed:107 in
  let rate = 1e-3 in
  let budget = 2000. in
  let all = Array.init 4000 (fun _ -> Rng.exponential rng ~rate) in
  let observed = Array.of_list (List.filter (fun x -> x <= budget) (Array.to_list all)) in
  let censored = Array.map (fun _ -> budget)
      (Array.of_list (List.filter (fun x -> x > budget) (Array.to_list all)))
  in
  let d = Mle.exponential_censored ~observed ~censored in
  let fitted = List.assoc "lambda" d.Distribution.params in
  if rel_err rate fitted > 0.05 then
    Alcotest.failf "censored MLE rate %g vs %g" fitted rate;
  let naive = List.assoc "lambda" (Mle.exponential observed).Distribution.params in
  Alcotest.(check bool) "naive overestimates" true (naive > fitted);
  Alcotest.check_raises "empty observed"
    (Invalid_argument "Mle.exponential_censored: empty sample") (fun () ->
      ignore (Mle.exponential_censored ~observed:[||] ~censored:[| 1. |]))

let test_invalid_params () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "exp rate 0" (fun () -> Exponential.create ~rate:0.);
  expect_invalid "exp negative shift" (fun () -> Exponential.shifted ~x0:(-1.) ~rate:1.);
  expect_invalid "lognormal sigma 0" (fun () -> Lognormal.create ~mu:0. ~sigma:0.);
  expect_invalid "normal sigma" (fun () -> Normal.create ~mu:0. ~sigma:(-1.));
  expect_invalid "uniform lo=hi" (fun () -> Uniform.create ~lo:1. ~hi:1.);
  expect_invalid "weibull shape" (fun () -> Weibull.create ~shape:0. ~scale:1.);
  expect_invalid "gamma rate" (fun () -> Gamma_dist.create ~shape:1. ~rate:0.);
  expect_invalid "levy scale" (fun () -> Levy.create ~scale:0.)

(* ------------------------------------------------------------------ *)
(* Empirical                                                           *)
(* ------------------------------------------------------------------ *)

let test_empirical_basic () =
  let e = Empirical.of_array [| 3.; 1.; 2. |] in
  Alcotest.(check int) "size" 3 (Empirical.size e);
  check_float ~eps:1e-12 "min" 1. (Empirical.min e);
  check_float ~eps:1e-12 "max" 3. (Empirical.max e);
  check_float ~eps:1e-12 "mean" 2. (Empirical.mean e);
  check_float ~eps:1e-12 "cdf below" 0. (Empirical.cdf e 0.5);
  check_rel ~tol:1e-12 "cdf mid" (2. /. 3.) (Empirical.cdf e 2.);
  check_rel ~tol:1e-12 "cdf between" (2. /. 3.) (Empirical.cdf e 2.5);
  check_float ~eps:1e-12 "cdf top" 1. (Empirical.cdf e 3.)

let test_empirical_expected_min_exact () =
  (* n=1: expectation of the sample itself. *)
  let xs = [| 1.; 2.; 3.; 4. |] in
  let e = Empirical.of_array xs in
  check_rel ~tol:1e-12 "n=1 is mean" 2.5 (Empirical.expected_min_exact e 1);
  (* n=2 by direct enumeration: E[min of 2 draws with replacement]. *)
  let brute =
    let acc = ref 0. in
    Array.iter (fun a -> Array.iter (fun b -> acc := !acc +. Float.min a b) xs) xs;
    !acc /. 16.
  in
  check_rel ~tol:1e-12 "n=2 enumeration" brute (Empirical.expected_min_exact e 2);
  (* Huge n converges to the sample minimum. *)
  check_rel ~tol:1e-6 "n huge -> min" 1. (Empirical.expected_min_exact e 5000)

let test_empirical_expected_min_matches_mc () =
  let rng = Rng.create ~seed:41 in
  let xs = Array.init 400 (fun _ -> Rng.exponential rng ~rate:0.001) in
  let e = Empirical.of_array xs in
  let exact = Empirical.expected_min_exact e 8 in
  let mc_n = 40_000 in
  let acc = ref 0. in
  for _ = 1 to mc_n do
    acc := !acc +. Empirical.min_of_draws e rng 8
  done;
  let mc = !acc /. float_of_int mc_n in
  if rel_err exact mc > 0.03 then
    Alcotest.failf "plug-in E[min8] %g vs MC %g" exact mc

let test_empirical_rejects_nan () =
  (* Regression: of_array used to sort with polymorphic compare, which both
     boxes on every comparison and leaves NaN-contaminated samples in an
     unspecified order — every quantile downstream silently corrupts. *)
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Empirical.of_array: NaN observation") (fun () ->
      ignore (Empirical.of_array [| 1.; Float.nan; 2. |]));
  let e = Empirical.of_array [| 3.; -0.; 1.5; 0.; -2.; Float.max_float |] in
  check_float ~eps:0. "min" (-2.) (Empirical.min e);
  check_float ~eps:0. "max" Float.max_float (Empirical.max e);
  let s = Empirical.sorted e in
  Array.iteri
    (fun i v ->
      if i > 0 && s.(i - 1) > v then
        Alcotest.failf "not sorted at %d: %g > %g" i s.(i - 1) v)
    s

let test_empirical_resample_draws_from_pool () =
  let rng = Rng.create ~seed:137 in
  let e = Empirical.of_array [| 2.; 4.; 8. |] in
  let draws = Empirical.resample e rng 500 in
  Array.iter
    (fun v ->
      if v <> 2. && v <> 4. && v <> 8. then Alcotest.failf "foreign value %g" v)
    draws;
  (* All pool members appear in a 500-draw resample with near certainty. *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "value %g drawn" v)
        true
        (Array.exists (fun x -> x = v) draws))
    [ 2.; 4.; 8. ]

let test_empirical_quantile_interpolates () =
  let e = Empirical.of_array [| 10.; 20.; 30.; 40. |] in
  check_float ~eps:1e-12 "median" 25. (Empirical.quantile e 0.5);
  check_float ~eps:1e-12 "min quantile" 10. (Empirical.quantile e 0.)

(* ------------------------------------------------------------------ *)
(* Kolmogorov-Smirnov                                                  *)
(* ------------------------------------------------------------------ *)

let test_kolmogorov_cdf_values () =
  (* Known values of the Kolmogorov distribution. *)
  check_rel ~tol:1e-6 "K(0.5)" 0.0360547563 (Kolmogorov.kolmogorov_cdf 0.5);
  check_rel ~tol:1e-6 "K(1.0)" 0.7300003283 (Kolmogorov.kolmogorov_cdf 1.0);
  (* From the alternating series by hand:
     1 - 2(e^(-2·1.36²) - e^(-8·1.36²) + ...). *)
  check_rel ~tol:1e-6 "K(1.36)"
    (1. -. (2. *. (exp (-2. *. 1.36 *. 1.36) -. exp (-8. *. 1.36 *. 1.36))))
    (Kolmogorov.kolmogorov_cdf 1.36);
  check_float ~eps:1e-12 "K(0)" 0. (Kolmogorov.kolmogorov_cdf 0.);
  check_rel ~tol:1e-12 "K(3)"
    (1. -. (2. *. exp (-18.)))
    (Kolmogorov.kolmogorov_cdf 3.);
  (* Continuity across the theta/series switch at 1.18 (tolerance covers the
     CDF's own slope over the 2e-7 test gap). *)
  check_rel ~tol:1e-6 "continuity at switch"
    (Kolmogorov.kolmogorov_cdf 1.1799999)
    (Kolmogorov.kolmogorov_cdf 1.1800001)

let test_ks_statistic_perfect_fit () =
  (* A sample located exactly at ECDF midpoints of its own uniform law has
     the minimal possible statistic 1/(2n). *)
  let n = 10 in
  let xs = Array.init n (fun i -> (float_of_int i +. 0.5) /. float_of_int n) in
  let d = Kolmogorov.statistic xs (fun x -> x) in
  check_rel ~tol:1e-12 "midpoint statistic" (1. /. (2. *. float_of_int n)) d

let test_ks_statistic_worst_fit () =
  let xs = [| 0.; 0.; 0. |] in
  let d = Kolmogorov.statistic xs (fun x -> x) in
  check_rel ~tol:1e-12 "all-at-zero vs uniform" 1. d

let test_ks_accepts_own_distribution () =
  let rng = Rng.create ~seed:43 in
  let d = Exponential.create ~rate:0.01 in
  let xs = Distribution.sample_array d rng 600 in
  let r = Kolmogorov.test xs d.Distribution.cdf in
  Alcotest.(check bool) "accepts true law" true r.Kolmogorov.accept

let test_ks_rejects_wrong_distribution () =
  let rng = Rng.create ~seed:47 in
  let d = Lognormal.create ~mu:3. ~sigma:1.5 in
  let xs = Distribution.sample_array d rng 600 in
  let wrong = Exponential.create ~rate:(1. /. Summary.mean xs) in
  let r = Kolmogorov.test xs wrong.Distribution.cdf in
  Alcotest.(check bool) "rejects exponential for lognormal data" false
    r.Kolmogorov.accept

let test_ks_p_value_uniformity () =
  (* Under H0 the p-value should not be systematically tiny: average over
     repeated samples stays in a broad central band. *)
  let rng = Rng.create ~seed:53 in
  let d = Uniform.create ~lo:0. ~hi:1. in
  let reps = 60 in
  let acc = ref 0. in
  for _ = 1 to reps do
    let xs = Distribution.sample_array d rng 100 in
    let r = Kolmogorov.test xs d.Distribution.cdf in
    acc := !acc +. r.Kolmogorov.p_value
  done;
  let avg = !acc /. float_of_int reps in
  if avg < 0.3 || avg > 0.7 then
    Alcotest.failf "average p-value under H0 is %g, expected ~0.5" avg

let test_ks_alpha_range () =
  (* Every alpha is checked where the test uses it: 0, 1 and anything
     outside (0, 1) would accept or reject every law regardless of fit. *)
  let xs = [| 0.1; 0.4; 0.7 |] in
  List.iter
    (fun alpha ->
      match Kolmogorov.test ~alpha xs (fun x -> x) with
      | (_ : Kolmogorov.result) ->
        Alcotest.failf "alpha %g accepted" alpha
      | exception Invalid_argument _ -> ())
    [ 0.; 1.; 1.5; -0.05; Float.nan; Float.infinity ];
  let r = Kolmogorov.test ~alpha:0.2 xs (fun x -> x) in
  Alcotest.(check (float 0.)) "alpha carried" 0.2 r.Kolmogorov.alpha

let test_ks_statistic_rejects_nan () =
  (* Regression: with the polymorphic compare a NaN sample value sorted to
     an unspecified rank, and every NaN CDF comparison was silently false —
     the statistic came back looking fine instead of failing. *)
  (match Kolmogorov.statistic [| 0.5; Float.nan; 0.25 |] (fun x -> x) with
  | (_ : float) -> Alcotest.fail "NaN in the sample accepted"
  | exception Invalid_argument _ -> ());
  match Kolmogorov.statistic [| 0.25; 0.75 |] (fun _ -> Float.nan) with
  | (_ : float) -> Alcotest.fail "NaN-returning CDF accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* MLE                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mle_exponential () =
  let rng = Rng.create ~seed:59 in
  let true_d = Exponential.create ~rate:0.02 in
  let xs = Distribution.sample_array true_d rng 20_000 in
  let d = Mle.exponential xs in
  let rate = List.assoc "lambda" d.Distribution.params in
  if rel_err 0.02 rate > 0.03 then Alcotest.failf "rate %g vs 0.02" rate

let test_mle_shifted_exponential () =
  let rng = Rng.create ~seed:61 in
  let true_d = Exponential.shifted ~x0:500. ~rate:0.001 in
  let xs = Distribution.sample_array true_d rng 20_000 in
  let d = Mle.shifted_exponential xs in
  let x0 = List.assoc "x0" d.Distribution.params in
  let rate = List.assoc "lambda" d.Distribution.params in
  if abs_float (x0 -. 500.) > 10. then Alcotest.failf "x0 %g vs 500" x0;
  if rel_err 0.001 rate > 0.05 then Alcotest.failf "rate %g vs 0.001" rate;
  (* The bias correction pulls x0 below the sample minimum by
     (mean - min)/(n-1). *)
  let xmin = Array.fold_left Float.min xs.(0) xs in
  Alcotest.(check bool) "corrected x0 below min" true (x0 <= xmin)

let test_mle_shifted_exponential_collapses_to_zero () =
  (* Unshifted data: the corrected shift must be negligible (within sampling
     noise of 0 — the paper's Costas 21 case, where the literal recipe would
     have kept x0 = min ≈ 1/(nλ) and wrongly capped the speed-up).  The
     substantive check: the implied speed-up on 256 cores stays near
     linear. *)
  let rng = Rng.create ~seed:63 in
  let true_d = Exponential.create ~rate:1e-6 in
  let xs = Distribution.sample_array true_d rng 650 in
  let g256 dist =
    let x0 =
      Option.value (List.assoc_opt "x0" dist.Distribution.params) ~default:0.
    in
    let mean = dist.Distribution.mean in
    mean /. (x0 +. ((mean -. x0) /. 256.))
  in
  let corrected = g256 (Mle.shifted_exponential xs) in
  (* The paper's literal recipe: x0 = min, λ = 1/(mean - min). *)
  let literal =
    let xmin = Array.fold_left Float.min xs.(0) xs in
    g256 (Exponential.shifted ~x0:xmin ~rate:(1. /. (Summary.mean xs -. xmin)))
  in
  Alcotest.(check bool) "correction moves toward linear" true (corrected >= literal);
  if corrected < 0.8 *. 256. then
    Alcotest.failf "corrected fit predicts G_256 = %g, expected near-linear" corrected

let test_mle_lognormal () =
  let rng = Rng.create ~seed:67 in
  let true_d = Lognormal.create ~mu:4. ~sigma:1.2 in
  let xs = Distribution.sample_array true_d rng 20_000 in
  let d = Mle.lognormal xs in
  let mu = List.assoc "mu" d.Distribution.params in
  let sigma = List.assoc "sigma" d.Distribution.params in
  if abs_float (mu -. 4.) > 0.05 then Alcotest.failf "mu %g vs 4" mu;
  if abs_float (sigma -. 1.2) > 0.05 then Alcotest.failf "sigma %g vs 1.2" sigma

let test_mle_shifted_lognormal_recovers () =
  let rng = Rng.create ~seed:71 in
  let true_d = Lognormal.shifted ~x0:1000. ~mu:3. ~sigma:1. in
  let xs = Distribution.sample_array true_d rng 2_000 in
  let d = Mle.shifted_lognormal xs in
  let ks = Kolmogorov.test xs d.Distribution.cdf in
  Alcotest.(check bool) "shifted lognormal fit passes KS" true ks.Kolmogorov.accept

let test_mle_normal () =
  let rng = Rng.create ~seed:73 in
  let xs = Array.init 20_000 (fun _ -> 5. +. (3. *. Rng.normal rng)) in
  let d = Mle.normal xs in
  if abs_float (List.assoc "mu" d.Distribution.params -. 5.) > 0.1 then
    Alcotest.fail "normal mu off";
  if abs_float (List.assoc "sigma" d.Distribution.params -. 3.) > 0.1 then
    Alcotest.fail "normal sigma off"

let test_mle_weibull () =
  let rng = Rng.create ~seed:79 in
  let true_d = Weibull.create ~shape:2.2 ~scale:10. in
  let xs = Distribution.sample_array true_d rng 20_000 in
  let d = Mle.weibull xs in
  let shape = List.assoc "shape" d.Distribution.params in
  let scale = List.assoc "scale" d.Distribution.params in
  if rel_err 2.2 shape > 0.05 then Alcotest.failf "weibull shape %g vs 2.2" shape;
  if rel_err 10. scale > 0.05 then Alcotest.failf "weibull scale %g vs 10" scale

let test_mle_gamma () =
  let rng = Rng.create ~seed:83 in
  let true_d = Gamma_dist.create ~shape:3. ~rate:0.5 in
  let xs = Distribution.sample_array true_d rng 20_000 in
  let d = Mle.gamma xs in
  let shape = List.assoc "shape" d.Distribution.params in
  let rate = List.assoc "rate" d.Distribution.params in
  if rel_err 3. shape > 0.08 then Alcotest.failf "gamma shape %g vs 3" shape;
  if rel_err 0.5 rate > 0.08 then Alcotest.failf "gamma rate %g vs 0.5" rate

let test_mle_levy_median_match () =
  let rng = Rng.create ~seed:89 in
  let true_d = Levy.create ~scale:4. in
  let xs = Distribution.sample_array true_d rng 30_000 in
  let d = Mle.levy xs in
  (* The estimator matches the median: check the fitted median. *)
  let med = Summary.median xs in
  check_rel ~tol:0.05 "levy median matched" med (d.Distribution.quantile 0.5)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let test_survival_power_extremes () =
  let cdf = (Exponential.create ~rate:1.).Distribution.cdf in
  check_rel ~tol:1e-12 "n=1 is survival" (exp (-2.))
    (Order_stats.survival_power cdf 1 2.);
  (* Large n via log1p stays finite and correct. *)
  check_rel ~tol:1e-9 "n=10000" (exp (-10_000. *. 0.001))
    (Order_stats.survival_power (fun _ -> 1. -. exp (-0.001)) 10_000 0.5)

let test_expected_min_exponential_closed_form () =
  let d = Exponential.shifted ~x0:100. ~rate:0.001 in
  List.iter
    (fun n ->
      check_rel ~tol:1e-6
        (Printf.sprintf "E[min %d]" n)
        (Order_stats.exponential_expected_min ~rate:0.001 ~x0:100. n)
        (Order_stats.expected_min d n))
    [ 1; 2; 4; 16; 64; 256; 1024 ]

let test_expected_min_uniform_closed_form () =
  let d = Uniform.create ~lo:10. ~hi:20. in
  List.iter
    (fun n ->
      check_rel ~tol:1e-6
        (Printf.sprintf "uniform E[min %d]" n)
        (Order_stats.uniform_expected_kth ~lo:10. ~hi:20. ~n ~k:1)
        (Order_stats.expected_min d n))
    [ 1; 2; 5; 10; 100 ]

let test_expected_min_weibull_closed_form () =
  let d = Weibull.create ~shape:1.5 ~scale:8. in
  List.iter
    (fun n ->
      check_rel ~tol:1e-6
        (Printf.sprintf "weibull E[min %d]" n)
        (Order_stats.weibull_expected_min ~shape:1.5 ~scale:8. n)
        (Order_stats.expected_min d n))
    [ 1; 3; 9; 81 ]

let test_expected_min_n1_is_mean () =
  List.iter
    (fun (name, d) ->
      let lo, _ = d.Distribution.support in
      if Float.is_nan d.Distribution.mean || lo < 0. then ()
      else
        check_rel ~tol:1e-5
          (Printf.sprintf "%s E[min 1] = mean" name)
          d.Distribution.mean (Order_stats.expected_min d 1))
    (List.filter (fun (n, _) -> n <> "normal" && n <> "levy") families_for_props)

let test_expected_min_monotone_decreasing () =
  let d = Lognormal.create ~mu:5. ~sigma:1. in
  let values = List.map (fun n -> Order_stats.expected_min d n) [ 1; 2; 4; 8; 16; 32 ] in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if b > a then Alcotest.failf "E[min] increased: %g -> %g" a b;
      check rest
    | _ -> ()
  in
  check values

let test_moment_min_consistency () =
  let d = Exponential.create ~rate:0.5 in
  (* First moment equals expected_min. *)
  check_rel ~tol:1e-6 "k=1 consistency" (Order_stats.expected_min d 4)
    (Order_stats.moment_min d ~n:4 ~k:1);
  (* Exponential min of n=4 is exponential rate 2: E[X^2] = 2/rate^2 = 0.5. *)
  check_rel ~tol:1e-6 "second moment" 0.5 (Order_stats.moment_min d ~n:4 ~k:2);
  check_rel ~tol:1e-5 "variance of min" 0.25 (Order_stats.variance_min d 4)

(* E[min of n LN(mu, sigma)] by the kernel's formula on a much finer and
   wider grid: 2000 panels of 16 Gauss-Legendre nodes over [-12, 14]. *)
let lognormal_reference () =
  let x, w = Quadrature.newton_nodes 16 in
  let lo = -12. and hi = 14. and panels = 2000 in
  let h = (hi -. lo) /. float_of_int panels in
  let m = panels * 16 in
  let z = Array.make m 0. and wz = Array.make m 0. in
  for p = 0 to panels - 1 do
    let mid = lo +. ((float_of_int p +. 0.5) *. h) in
    for i = 0 to 15 do
      z.((p * 16) + i) <- mid +. (0.5 *. h *. x.(i));
      wz.((p * 16) + i) <- 0.5 *. h *. w.(i)
    done
  done;
  let log_phic =
    Array.map
      (fun z ->
        if z < 0. then log1p (-.Special.norm_cdf z) else log (Special.norm_cdf (-.z)))
      z
  in
  fun ~mu ~sigma ~x0 n ->
    let fn = float_of_int n in
    let acc = ref 0. in
    for i = 0 to m - 1 do
      acc := !acc +. (wz.(i) *. exp ((sigma *. z.(i)) +. (fn *. log_phic.(i))))
    done;
    x0 +. (exp mu *. (exp (sigma *. lo) +. (sigma *. !acc)))

let kernel_sigmas = [ 0.1; 0.25; 0.5; 0.75; 1.; 1.5; 2.; 2.5; 3. ]

let kernel_ns =
  [ 1; 2; 3; 5; 8; 13; 32; 100; 256; 1000; 4096; 10_000; 65_536; 262_144; 1 lsl 20 ]

let test_lognormal_kernel_vs_integrator () =
  (* The kernel against the generic survival quadrature it replaces: 1e-7
     relative over sigma in [0.1, 3] and n up to 2^20, for plain and
     shifted laws.  Where the two differ by more, the quadrature must be
     the one that is off: more than 1e-7 from the fine reference, with the
     kernel within 1e-9 of it and closer. *)
  let reference = lognormal_reference () in
  let integrator_off = ref 0 in
  List.iter
    (fun (mu, x0) ->
      List.iter
        (fun sigma ->
          List.iter
            (fun n ->
              let name = Printf.sprintf "mu=%g x0=%g sigma=%g n=%d" mu x0 sigma n in
              let k = Order_stats.lognormal_expected_min ~mu ~sigma ~x0 n in
              let r = reference ~mu ~sigma ~x0 n in
              check_rel ~tol:1e-9 (name ^ ": kernel vs fine reference") r k;
              let law =
                if x0 = 0. then Lognormal.create ~mu ~sigma
                else Lognormal.shifted ~x0 ~mu ~sigma
              in
              let q = Order_stats.expected_min law n in
              if rel_err q k > 1e-7 then begin
                incr integrator_off;
                if not (rel_err r q > 1e-7 && abs_float (k -. r) < abs_float (q -. r)) then
                  Alcotest.failf "%s: kernel %.17g, quadrature %.17g, reference %.17g"
                    name k q r
              end)
            kernel_ns)
        kernel_sigmas)
    [ (0., 0.); (2.3, 0.); (-0.7, 5.) ];
  (* Today that happens only at sigma = 0.1 and n >= 2^18, where the
     quadrature's geometric panels straddle a near-step survival function. *)
  Alcotest.(check bool) "quadrature is the one off in at most 10 of 405 cases" true
    (!integrator_off <= 10)

let test_lognormal_kernel_n1_is_mean () =
  List.iter
    (fun (mu, x0) ->
      List.iter
        (fun sigma ->
          check_rel ~tol:1e-9
            (Printf.sprintf "mu=%g x0=%g sigma=%g" mu x0 sigma)
            (x0 +. exp (mu +. (sigma *. sigma /. 2.)))
            (Order_stats.lognormal_expected_min ~mu ~sigma ~x0 1))
        kernel_sigmas)
    [ (0., 0.); (2.3, 0.); (-0.7, 5.) ]

let test_lognormal_kernel_domain () =
  List.iter
    (fun (sigma, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "sigma %g, n %d inside" sigma n)
        true
        (Order_stats.lognormal_kernel_covers ~sigma n))
    [ (Mle.zero_spread_sigma, 1 lsl 20); (0.09, 4); (3.01, 4); (5., 1) ];
  List.iter
    (fun (sigma, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "sigma %g, n %d outside" sigma n)
        false
        (Order_stats.lognormal_kernel_covers ~sigma n);
      match Order_stats.lognormal_expected_min ~mu:0. ~sigma n with
      | _ -> Alcotest.failf "sigma %g, n %d: expected Invalid_argument" sigma n
      | exception Invalid_argument _ -> ())
    [ (0., 4); (-1., 4); (5.01, 4); (Float.nan, 4); (1., 0); (1., (1 lsl 20) + 1) ]

let test_order_stats_validation () =
  let d = Exponential.create ~rate:1. in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "n=0" (fun () -> Order_stats.expected_min d 0);
  expect_invalid "negative support" (fun () ->
      Order_stats.expected_min (Normal.create ~mu:0. ~sigma:1.) 2)

(* ------------------------------------------------------------------ *)
(* Bootstrap                                                           *)
(* ------------------------------------------------------------------ *)

(* The percentile bootstrap of the mean: 1000 resample means, reduced by
   [percentile_interval] at its default 95% level. *)
let bootstrap_mean ~rng xs =
  let emp = Empirical.of_array xs in
  let n = Array.length xs in
  let means =
    Array.init 1000 (fun _ -> Summary.mean (Empirical.resample emp rng n))
  in
  Bootstrap.percentile_interval ~estimate:(Summary.mean xs) means

let test_bootstrap_interval_contains_estimate () =
  let rng = Rng.create ~seed:97 in
  let xs = Array.init 500 (fun _ -> Rng.exponential rng ~rate:0.1) in
  let iv = bootstrap_mean ~rng xs in
  Alcotest.(check bool) "lo <= estimate" true (iv.Bootstrap.lo <= iv.Bootstrap.estimate);
  Alcotest.(check bool) "estimate <= hi" true (iv.Bootstrap.estimate <= iv.Bootstrap.hi);
  (* The true mean 10 should usually be inside a 95% interval. *)
  Alcotest.(check bool) "contains truth" true
    (iv.Bootstrap.lo <= 10. && 10. <= iv.Bootstrap.hi)

let test_bootstrap_narrows_with_n () =
  let rng = Rng.create ~seed:101 in
  let xs_small = Array.init 50 (fun _ -> Rng.normal rng) in
  let xs_large = Array.init 5000 (fun _ -> Rng.normal rng) in
  let w xs =
    let iv = bootstrap_mean ~rng xs in
    iv.Bootstrap.hi -. iv.Bootstrap.lo
  in
  Alcotest.(check bool) "larger sample, narrower CI" true (w xs_large < w xs_small)

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

(* The two-power formula expected_min_exact used before carrying the
   shared power term over: the carried version, and the shared-log table,
   must match it bit for bit. *)
let two_power_min e n =
  let xs = Empirical.sorted e in
  let sz = Array.length xs in
  let fn = float_of_int n and fsz = float_of_int sz in
  let acc = ref 0. in
  for i = 1 to sz do
    let a = float_of_int (sz - i + 1) /. fsz in
    let b = float_of_int (sz - i) /. fsz in
    let w = exp (fn *. log a) -. if b > 0. then exp (fn *. log b) else 0. in
    acc := !acc +. (w *. xs.(i - 1))
  done;
  !acc

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Special]'s incomplete gamma (for a >= 1/2), erf and erfc written with
   log Γ(a) computed in every call, a recursive series and a continued
   fraction left by exception: the reference [Special] must match bit for
   bit. *)
module Reference_special = struct
  let pi = 4. *. atan 1.
  let eps = epsilon_float
  let fpmin = min_float /. eps

  let lanczos_coef =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

  let log_gamma x =
    let x = x -. 1. in
    let acc = ref lanczos_coef.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos_coef.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7. +. 0.5 in
    (0.5 *. log (2. *. pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc

  let gamma_p_series a x =
    let gln = log_gamma a in
    let rec go ap del sum n =
      if n > 1000 then sum
      else begin
        let ap = ap +. 1. in
        let del = del *. x /. ap in
        let sum = sum +. del in
        if abs_float del < abs_float sum *. eps then sum else go ap del sum (n + 1)
      end
    in
    let sum = go a (1. /. a) (1. /. a) 0 in
    sum *. exp ((-.x) +. (a *. log x) -. gln)

  let gamma_q_cf a x =
    let gln = log_gamma a in
    let b = ref (x +. 1. -. a) in
    let c = ref (1. /. fpmin) in
    let d = ref (1. /. !b) in
    let h = ref !d in
    (try
       for i = 1 to 1000 do
         let an = -.float_of_int i *. (float_of_int i -. a) in
         b := !b +. 2.;
         d := (an *. !d) +. !b;
         if abs_float !d < fpmin then d := fpmin;
         c := !b +. (an /. !c);
         if abs_float !c < fpmin then c := fpmin;
         d := 1. /. !d;
         let del = !d *. !c in
         h := !h *. del;
         if abs_float (del -. 1.) < eps then raise Exit
       done
     with Exit -> ());
    exp ((-.x) +. (a *. log x) -. gln) *. !h

  let gamma_p a x =
    if x = 0. then 0.
    else if x < a +. 1. then gamma_p_series a x
    else 1. -. gamma_q_cf a x

  let gamma_q a x =
    if x = 0. then 1.
    else if x < a +. 1. then 1. -. gamma_p_series a x
    else gamma_q_cf a x

  let erf x =
    if x = 0. then 0.
    else if x > 0. then gamma_p 0.5 (x *. x)
    else -.gamma_p 0.5 (x *. x)

  let erfc x =
    if x >= 0. then (if x > 26. then 0. else gamma_q 0.5 (x *. x))
    else 2. -. gamma_q 0.5 (x *. x)

  let norm_cdf x = 0.5 *. erfc (-.x /. sqrt 2.)
end


let qcheck_props =
  let open QCheck in
  (* Order-statistic minima against Monte-Carlo sampling, one property per
     candidate family.  The tolerance is tied to the Monte-Carlo standard
     error of the replicate minima (3.5 SE keeps the per-case flake
     probability ~2e-4 while still catching any real bias), so the check is
     exactly as sharp as the sampling noise allows — for the exponential
     and Weibull the reference is the analytic closed form, for the
     lognormal and gamma the survival-function quadrature. *)
  let mc_min_matches ~name ?(reps = 4000) make_dist reference =
    Test.make ~name ~count:5
      (pair small_int (int_range 2 8))
      (fun (seed, n) ->
        let d = make_dist seed in
        let expected = reference d n in
        let rng = Rng.create ~seed:(seed + 90210) in
        let sum = ref 0. and sumsq = ref 0. in
        for _ = 1 to reps do
          let draws = Distribution.sample_array d rng n in
          let m = Array.fold_left Float.min draws.(0) draws in
          sum := !sum +. m;
          sumsq := !sumsq +. (m *. m)
        done;
        let mean = !sum /. float_of_int reps in
        let var =
          Float.max 0. ((!sumsq /. float_of_int reps) -. (mean *. mean))
        in
        let se = sqrt (var /. float_of_int reps) in
        abs_float (mean -. expected)
        <= (3.5 *. se) +. (1e-6 *. (1. +. abs_float expected)))
  in
  [
    Test.make ~name:"quantile: cdf(quantile p) ~ p for exponential"
      ~count:200
      (pair (float_range 0.01 0.99) (float_range 0.001 10.))
      (fun (p, rate) ->
        let d = Exponential.create ~rate in
        abs_float (d.Distribution.cdf (d.Distribution.quantile p) -. p) < 1e-9);
    Test.make ~name:"ks statistic in [0,1]" ~count:100
      (list_of_size (Gen.int_range 1 50) (float_range 0. 1000.))
      (fun xs ->
        let xs = Array.of_list xs in
        let d = Kolmogorov.statistic xs (fun x -> 1. -. exp (-0.001 *. x)) in
        d >= 0. && d <= 1.);
    Test.make ~name:"empirical expected_min decreasing in n" ~count:50
      (list_of_size (Gen.int_range 2 60) (float_range 1. 1e6))
      (fun xs ->
        let e = Empirical.of_array (Array.of_list xs) in
        let last = ref infinity in
        List.for_all
          (fun n ->
            let v = Empirical.expected_min_exact e n in
            let ok = v <= !last +. 1e-9 in
            last := v;
            ok)
          [ 1; 2; 4; 8; 16 ]);
    Test.make ~name:"empirical expected_min bounded by sample min/mean" ~count:100
      (list_of_size (Gen.int_range 1 50) (float_range 0. 1e5))
      (fun xs ->
        let arr = Array.of_list xs in
        let e = Empirical.of_array arr in
        let v = Empirical.expected_min_exact e 7 in
        v >= Empirical.min e -. 1e-9 && v <= Empirical.mean e +. 1e-9);
    Test.make ~name:"empirical expected_min at n=1 is the sample mean" ~count:100
      (list_of_size (Gen.int_range 1 80) (float_range (-1e4) 1e4))
      (fun xs ->
        let arr = Array.of_list xs in
        let e = Empirical.of_array arr in
        let mean =
          Array.fold_left ( +. ) 0. arr /. float_of_int (Array.length arr)
        in
        abs_float (Empirical.expected_min_exact e 1 -. mean)
        <= 1e-9 *. (1. +. abs_float mean));
    Test.make ~name:"empirical expected_min -> sample min as n -> inf" ~count:50
      (list_of_size (Gen.int_range 2 40) (float_range 0. 1e6))
      (fun xs ->
        let arr = Array.of_list xs in
        let e = Empirical.of_array arr in
        let sz = Array.length arr in
        (* At n = 50N the mass off the minimum position is at most
           (1 - 1/N)^(50N) ~ e^-50 of the sample range. *)
        let v = Empirical.expected_min_exact e (50 * sz) in
        let range = Empirical.max e -. Empirical.min e in
        v >= Empirical.min e -. 1e-9
        && v -. Empirical.min e <= 1e-6 *. (1. +. range));
    Test.make ~name:"empirical expected_min within MC standard error" ~count:5
      (pair small_int (int_range 2 8))
      (fun (seed, n) ->
        (* min_of_draws is an unbiased MC estimator of expected_min_exact;
           check agreement at 3.5 standard errors (the extra .5 over the
           usual 3 keeps the suite's flake probability ~1e-3 over 5 cases
           while still catching any real bias). *)
        let rng = Rng.create ~seed:(seed + 4242) in
        let xs = Array.init 300 (fun _ -> Rng.exponential rng ~rate:0.01) in
        let e = Empirical.of_array xs in
        let exact = Empirical.expected_min_exact e n in
        let reps = 4000 in
        let sum = ref 0. and sumsq = ref 0. in
        for _ = 1 to reps do
          let v = Empirical.min_of_draws e rng n in
          sum := !sum +. v;
          sumsq := !sumsq +. (v *. v)
        done;
        let mean = !sum /. float_of_int reps in
        let var = Float.max 0. ((!sumsq /. float_of_int reps) -. (mean *. mean)) in
        let se = sqrt (var /. float_of_int reps) in
        abs_float (mean -. exact) <= (3.5 *. se) +. 1e-9);
    (* The stdlib sort is the reference: Float_sort must leave every bit
       where it does, NaN payloads and signed zeros included. *)
    (let specials =
       [| nan; -.nan; Int64.float_of_bits 0x7ff8000000000001L; 0.; -0.;
          infinity; neg_infinity; 1.; -1.; min_float; 4.9e-324 |]
     in
     let elt =
       Gen.frequency
         [
           (2, Gen.oneofa specials);
           (2, Gen.map float_of_int (Gen.int_range (-3) 3));
           (1, Gen.float);
         ]
     in
     Test.make ~name:"float_sort bit-identical to Array.sort Float.compare"
       ~count:1000
       (make
          ~print:(fun a -> Print.array (Printf.sprintf "%h") a)
          Gen.(int_range 0 400 >>= fun n -> array_size (return n) elt))
       (fun a ->
         let expected = Array.copy a and actual = Array.copy a in
         Array.sort Float.compare expected;
         Float_sort.sort actual;
         Array.for_all2
           (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           expected actual));
    Test.make ~name:"empirical expected_min bit-identical to two-power formula"
      ~count:300
      (make
          ~print:Print.(array float)
          Gen.(
            int_range 1 50 >>= fun n ->
            array_size (return n)
              (frequency
                 [
                   (1, map float_of_int (int_range 1 4));
                   (1, float_range 0. 1e6);
                 ])))
      (fun xs ->
        let e = Empirical.of_array xs in
        List.for_all
          (fun n -> same_bits (Empirical.expected_min_exact e n) (two_power_min e n))
          [ 1; 2; 3; 64; 4096 ]);
    (* One shared log table for every core count: each value keeps the
       bits of the two-power formula, on samples with ties, N = 1, n = 1
       and n large enough that every power but the first underflows to 0. *)
    Test.make ~name:"empirical expected_min_table bit-identical to two-power formula"
      ~count:300
      (make
         ~print:Print.(pair (array float) (list int))
         Gen.(
           pair
             (frequency [ (1, return 1); (4, int_range 2 80) ] >>= fun n ->
              array_size (return n)
                (frequency
                   [
                     (2, map float_of_int (int_range 1 4));
                     (2, float_range 0. 1e6);
                     (1, float_range 1e-9 1e-3);
                   ]))
             (map
                (fun ns -> 1 :: ns @ [ 1_000_000 ])
                (list_size (int_range 0 8)
                   (frequency [ (3, int_range 1 64); (1, int_range 65 100_000) ])))))
      (fun (xs, ns) ->
        let e = Empirical.of_array xs in
        let table = Empirical.expected_min_table e ns in
        List.length table = List.length ns
        && List.for_all2 (fun n v -> same_bits v (two_power_min e n)) ns table);
    (* The shift scan before it sorted the sample once: every candidate
       shift scored by a full [Kolmogorov.test], which copies, checks and
       sorts the sample again.  The fitted law must keep its bits. *)
    (let log_fit xs x0 =
       let logs =
         Array.map
           (fun x ->
             let v = x -. x0 in
             if v <= 0. then
               invalid_arg "Mle.shifted_lognormal: observations must exceed the shift";
             log v)
           xs
       in
       let mu = Summary.mean logs in
       let sigma =
         let n = float_of_int (Array.length logs) in
         let acc = Array.fold_left (fun a l -> a +. ((l -. mu) ** 2.)) 0. logs in
         sqrt (acc /. n)
       in
       (mu, if sigma > 0. then sigma else 1e-12)
     in
     let sort_per_candidate xs =
       let xmin = Array.fold_left Float.min xs.(0) xs in
       if xmin <= 0. then Mle.lognormal xs
       else begin
         let fit_at x0 =
           let mu, sigma = log_fit xs x0 in
           Lognormal.shifted ~x0 ~mu ~sigma
         in
         let score d = (Kolmogorov.test xs d.Distribution.cdf).Kolmogorov.p_value in
         let candidates = 48 in
         let best = ref (0., score (Mle.lognormal xs)) in
         for i = 1 to candidates do
           let frac = float_of_int i /. float_of_int candidates in
           let x0 = xmin *. (frac ** 0.5) in
           let x0 = Float.min x0 (xmin *. (1. -. 1e-9)) in
           match fit_at x0 with
           | d ->
             let s = score d in
             if s > snd !best then best := (x0, s)
           | exception Invalid_argument _ -> ()
         done;
         fit_at (fst !best)
       end
     in
     let same_law (a : Distribution.t) (b : Distribution.t) =
       String.equal a.Distribution.name b.Distribution.name
       && List.equal
            (fun (k, u) (k', v) ->
              String.equal k k' && Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
            a.Distribution.params b.Distribution.params
     in
     Test.make ~name:"shifted-lognormal scan bit-identical to sorting per candidate"
       ~count:200
       (make
          ~print:(fun (seed, n, (x0, sigma)) ->
            Printf.sprintf "seed=%d n=%d x0=%g sigma=%g" seed n x0 sigma)
          Gen.(
            triple nat (int_range 1 300)
              (pair (float_range 0. 50.) (float_range 0.05 2.))))
       (fun (seed, n, (x0, sigma)) ->
         let rng = Rng.create ~seed in
         let xs =
           Array.init n (fun _ -> x0 +. Rng.lognormal rng ~mu:1. ~sigma)
         in
         (* Ties and a sample minimum repeated exactly stress the ECDF. *)
         if n > 3 then xs.(n - 1) <- xs.(0);
         same_law (Mle.shifted_lognormal xs) (sort_per_candidate xs)));
    mc_min_matches ~name:"E[min] exponential closed form vs MC"
      (fun seed ->
        Exponential.create ~rate:(0.05 +. (0.01 *. float_of_int (seed mod 50))))
      (fun d n ->
        let rate = List.assoc "lambda" d.Distribution.params in
        Order_stats.exponential_expected_min ~rate n);
    mc_min_matches ~name:"E[min] weibull closed form vs MC"
      (fun seed ->
        Weibull.create
          ~shape:(0.8 +. (0.1 *. float_of_int (seed mod 20)))
          ~scale:(5. +. float_of_int (seed mod 30)))
      (fun d n ->
        let shape = List.assoc "shape" d.Distribution.params in
        let scale = List.assoc "scale" d.Distribution.params in
        Order_stats.weibull_expected_min ~shape ~scale n);
    mc_min_matches ~name:"E[min] lognormal quadrature vs MC"
      (fun seed ->
        Lognormal.create
          ~mu:(1. +. (0.1 *. float_of_int (seed mod 20)))
          ~sigma:(0.3 +. (0.05 *. float_of_int (seed mod 10))))
      Order_stats.expected_min;
    mc_min_matches ~name:"E[min] gamma quadrature vs MC"
      (fun seed ->
        Gamma_dist.create
          ~shape:(1. +. (0.25 *. float_of_int (seed mod 12)))
          ~rate:(0.1 +. (0.05 *. float_of_int (seed mod 8))))
      Order_stats.expected_min;
    Test.make ~name:"summary quantile is monotone in p" ~count:100
      (list_of_size (Gen.int_range 1 40) (float_range (-100.) 100.))
      (fun xs ->
        let arr = Array.of_list xs in
        Summary.quantile arr 0.2 <= Summary.quantile arr 0.8 +. 1e-9);
    Test.make ~name:"histogram counts sum to sample size" ~count:100
      (list_of_size (Gen.int_range 1 200) (float_range (-50.) 50.))
      (fun xs ->
        let arr = Array.of_list xs in
        let h = Histogram.make arr in
        Array.fold_left ( + ) 0 h.Histogram.counts = Array.length arr);
    Test.make ~name:"rng int respects bound" ~count:200
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create ~seed in
        let k = Rng.int rng bound in
        k >= 0 && k < bound);
    Test.make ~name:"survival_power in [0,1] and decreasing in n" ~count:200
      (pair (float_range 0. 5.) (int_range 1 100))
      (fun (x, n) ->
        let cdf = (Exponential.create ~rate:1.).Distribution.cdf in
        let s1 = Order_stats.survival_power cdf n x in
        let s2 = Order_stats.survival_power cdf (n + 1) x in
        s1 >= 0. && s1 <= 1. && s2 <= s1 +. 1e-12);
    (* Every argument that gave a number keeps its bits; past the overflow
       of x², where the reference gives NaN, only a NaN argument still
       does. *)
    (let x =
       Gen.oneof
         [
           Gen.float_range (-1.2247) 1.2247;
           Gen.float_range (-30.) 30.;
           Gen.map (fun d -> 26. +. d) (Gen.float_range (-1e-9) 1e-9);
           Gen.map (fun d -> -26. +. d) (Gen.float_range (-1e-9) 1e-9);
           Gen.map (fun m -> m *. 4.9e-324) (Gen.float_range (-1e6) 1e6);
           Gen.map (fun e -> Float.pow 10. e) (Gen.float_range (-300.) 300.);
           Gen.map (fun e -> -.Float.pow 10. e) (Gen.float_range (-300.) 300.);
           Gen.oneofl [ 0.; -0.; infinity; neg_infinity; nan; min_float ];
         ]
     in
     Test.make ~name:"erf, erfc and norm_cdf bit-identical to the reference"
       ~count:20_000
       (make ~print:(Printf.sprintf "%h") x)
       (fun x ->
         List.for_all
           (fun (f, g) ->
             let reference = g x and actual = f x in
             if Float.is_nan reference then Float.is_nan actual = Float.is_nan x
             else same_bits reference actual)
           [
             (Special.erf, Reference_special.erf);
             (Special.erfc, Reference_special.erfc);
             (Special.norm_cdf, Reference_special.norm_cdf);
           ]));
    Test.make ~name:"gamma_p and gamma_q bit-identical to the reference"
      ~count:5_000
      (make
         ~print:(fun (a, x) -> Printf.sprintf "a = %g, x = %h" a x)
         Gen.(pair (oneofl [ 0.5; 1.; 2.5; 7.; 30. ]) (float_range 0. 2.)))
      (fun (a, r) ->
        (* r < 1/2 lands below a + 1 (the series), r > 1/2 above (the
           continued fraction). *)
        let x = 2. *. r *. (a +. 1.) in
        same_bits (Reference_special.gamma_p a x) (Special.gamma_p a x)
        && same_bits (Reference_special.gamma_q a x) (Special.gamma_q a x));
  ]

let () =
  Alcotest.run "lv_stats"
    [
      ( "special",
        [
          Alcotest.test_case "erf values" `Quick test_erf_values;
          Alcotest.test_case "erfc values" `Quick test_erfc_values;
          Alcotest.test_case "erf + erfc = 1" `Quick test_erf_erfc_complement;
          Alcotest.test_case "erfc_inv" `Quick test_erfc_inv;
          Alcotest.test_case "log_gamma" `Quick test_log_gamma;
          Alcotest.test_case "incomplete gamma" `Quick test_gamma_p_q;
          Alcotest.test_case "digamma" `Quick test_digamma;
          Alcotest.test_case "normal cdf/quantile" `Quick test_norm_cdf_quantile;
          Alcotest.test_case "extreme arguments" `Quick test_special_extreme_arguments;
          Alcotest.test_case "erfc allocation" `Quick test_erfc_allocation;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
          Alcotest.test_case "exponential moments" `Slow test_rng_exponential_moments;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
        ] );
      ( "quadrature",
        [
          Alcotest.test_case "adaptive simpson" `Quick test_simpson_polynomials;
          Alcotest.test_case "gauss-legendre" `Quick test_gauss_legendre;
          Alcotest.test_case "gauss tables match Newton construction" `Quick
            test_gauss_tables_match_newton;
          Alcotest.test_case "decaying panels" `Quick test_integrate_decaying;
        ] );
      ( "rootfind",
        [
          Alcotest.test_case "brent" `Quick test_brent;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basic stats" `Quick test_summary_basic;
          Alcotest.test_case "quantiles" `Quick test_summary_quantile;
          Alcotest.test_case "errors" `Quick test_summary_errors;
          Alcotest.test_case "skewness/kurtosis" `Slow test_summary_skew_kurt;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "density normalization" `Quick test_histogram_density_integrates;
          Alcotest.test_case "binning modes" `Quick test_histogram_binning_modes;
          Alcotest.test_case "edges and centers" `Quick test_histogram_edges;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "cdf monotone bounded" `Quick test_cdf_monotone_and_bounded;
          Alcotest.test_case "quantile inverts cdf" `Quick test_quantile_inverts_cdf;
          Alcotest.test_case "pdf = cdf'" `Quick test_pdf_matches_cdf_derivative;
          Alcotest.test_case "sampling matches mean" `Slow test_sample_mean_matches;
          Alcotest.test_case "closed-form means" `Quick test_closed_form_means;
          Alcotest.test_case "numeric mean cross-check" `Quick test_numeric_mean_cross_check;
          Alcotest.test_case "shift combinator" `Quick test_shift_properties;
          Alcotest.test_case "truncated normal" `Slow test_truncated_normal;
          Alcotest.test_case "levy quantile" `Quick test_levy_quantile;
          Alcotest.test_case "pretty printing" `Quick test_distribution_pp;
          Alcotest.test_case "weibull min closure (MC)" `Slow test_min_of_weibull_is_weibull;
          Alcotest.test_case "censored exponential MLE" `Quick test_mle_exponential_censored;
          Alcotest.test_case "invalid parameters" `Quick test_invalid_params;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "basics" `Quick test_empirical_basic;
          Alcotest.test_case "expected min exact" `Quick test_empirical_expected_min_exact;
          Alcotest.test_case "expected min vs MC" `Slow test_empirical_expected_min_matches_mc;
          Alcotest.test_case "NaN rejected, Float.compare sort" `Quick test_empirical_rejects_nan;
          Alcotest.test_case "resample pool" `Quick test_empirical_resample_draws_from_pool;
          Alcotest.test_case "quantile" `Quick test_empirical_quantile_interpolates;
        ] );
      ( "kolmogorov",
        [
          Alcotest.test_case "distribution values" `Quick test_kolmogorov_cdf_values;
          Alcotest.test_case "perfect-fit statistic" `Quick test_ks_statistic_perfect_fit;
          Alcotest.test_case "worst-fit statistic" `Quick test_ks_statistic_worst_fit;
          Alcotest.test_case "accepts own law" `Quick test_ks_accepts_own_distribution;
          Alcotest.test_case "rejects wrong law" `Quick test_ks_rejects_wrong_distribution;
          Alcotest.test_case "p-value calibration" `Slow test_ks_p_value_uniformity;
          Alcotest.test_case "NaN rejected" `Quick test_ks_statistic_rejects_nan;
          Alcotest.test_case "alpha range" `Quick test_ks_alpha_range;
        ] );
      ( "mle",
        [
          Alcotest.test_case "exponential" `Slow test_mle_exponential;
          Alcotest.test_case "shifted exponential" `Slow test_mle_shifted_exponential;
          Alcotest.test_case "shift collapses when spurious" `Quick test_mle_shifted_exponential_collapses_to_zero;
          Alcotest.test_case "lognormal" `Slow test_mle_lognormal;
          Alcotest.test_case "shifted lognormal" `Slow test_mle_shifted_lognormal_recovers;
          Alcotest.test_case "normal" `Slow test_mle_normal;
          Alcotest.test_case "weibull" `Slow test_mle_weibull;
          Alcotest.test_case "gamma" `Slow test_mle_gamma;
          Alcotest.test_case "levy" `Slow test_mle_levy_median_match;
        ] );
      ( "order_stats",
        [
          Alcotest.test_case "survival power" `Quick test_survival_power_extremes;
          Alcotest.test_case "exponential closed form" `Quick test_expected_min_exponential_closed_form;
          Alcotest.test_case "uniform closed form" `Quick test_expected_min_uniform_closed_form;
          Alcotest.test_case "weibull closed form" `Quick test_expected_min_weibull_closed_form;
          Alcotest.test_case "E[min 1] = mean" `Quick test_expected_min_n1_is_mean;
          Alcotest.test_case "monotone in n" `Quick test_expected_min_monotone_decreasing;
          Alcotest.test_case "higher moments" `Quick test_moment_min_consistency;
          Alcotest.test_case "validation" `Quick test_order_stats_validation;
          Alcotest.test_case "lognormal kernel vs integrator" `Quick
            test_lognormal_kernel_vs_integrator;
          Alcotest.test_case "lognormal kernel n=1 is the mean" `Quick
            test_lognormal_kernel_n1_is_mean;
          Alcotest.test_case "lognormal kernel domain" `Quick test_lognormal_kernel_domain;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "interval sanity" `Quick test_bootstrap_interval_contains_estimate;
          Alcotest.test_case "narrows with n" `Slow test_bootstrap_narrows_with_n;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
