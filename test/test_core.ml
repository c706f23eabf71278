(* Tests for the prediction core: the multi-walk transform against closed
   forms and Monte Carlo, speed-up curves against the paper's published
   values (Table 5 regression), the fitting pipeline on synthetic data, the
   end-to-end prediction, and the paper-data module itself. *)

open Lv_stats
open Lv_core

let rel_err expected actual =
  if expected = 0. then abs_float actual else abs_float ((actual -. expected) /. expected)

let check_rel ?(tol = 1e-9) name expected actual =
  if rel_err expected actual > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g (rel err %.3g)" name expected
      actual (rel_err expected actual)

(* ------------------------------------------------------------------ *)
(* Min_dist                                                            *)
(* ------------------------------------------------------------------ *)

let test_min_dist_cdf_formula () =
  (* F_Z = 1 - (1 - F_Y)^n, checked pointwise. *)
  let d = Exponential.create ~rate:0.01 in
  List.iter
    (fun (n, x) ->
      let f = d.Distribution.cdf x in
      check_rel ~tol:1e-12
        (Printf.sprintf "F_Z n=%d x=%g" n x)
        (1. -. ((1. -. f) ** float_of_int n))
        (Min_dist.cdf d ~n x))
    [ (1, 50.); (2, 100.); (10, 30.); (100, 5.) ]

let test_min_dist_pdf_formula () =
  let d = Lognormal.create ~mu:5. ~sigma:1. in
  List.iter
    (fun (n, x) ->
      let f = d.Distribution.cdf x and p = d.Distribution.pdf x in
      check_rel ~tol:1e-10
        (Printf.sprintf "f_Z n=%d x=%g" n x)
        (float_of_int n *. p *. ((1. -. f) ** float_of_int (n - 1)))
        (Min_dist.pdf d ~n x))
    [ (2, 100.); (8, 50.); (64, 20.) ]

let test_min_dist_exponential_is_exponential () =
  (* min of n exponential(λ) is exponential(nλ): check the full law. *)
  let d = Exponential.create ~rate:0.001 in
  let z8 = Min_dist.distribution d ~n:8 in
  let ref8 = Exponential.create ~rate:0.008 in
  List.iter
    (fun x ->
      check_rel ~tol:1e-9 (Printf.sprintf "cdf at %g" x) (ref8.Distribution.cdf x)
        (z8.Distribution.cdf x))
    [ 10.; 100.; 500. ];
  check_rel ~tol:1e-9 "mean" 125. z8.Distribution.mean

let test_min_dist_n1_identity () =
  let d = Lognormal.create ~mu:3. ~sigma:0.5 in
  let z = Min_dist.distribution d ~n:1 in
  Alcotest.(check string) "same law" d.Distribution.name z.Distribution.name;
  check_rel ~tol:1e-12 "same mean" d.Distribution.mean z.Distribution.mean

let test_min_dist_expectation_closed_vs_numeric () =
  let d = Exponential.shifted ~x0:1217. ~rate:9.15956e-6 in
  List.iter
    (fun n ->
      check_rel ~tol:1e-6
        (Printf.sprintf "E[Z^%d]" n)
        (1217. +. (1. /. (float_of_int n *. 9.15956e-6)))
        (Min_dist.expectation d ~n))
    [ 1; 16; 256 ]

let test_min_dist_routes_to_fast_paths () =
  (* Lognormal and Weibull laws are detected by name and parameters, like
     the exponential; anything the kernel does not cover falls back to the
     generic quadrature. *)
  let bits = Int64.bits_of_float in
  let same name expected actual =
    Alcotest.(check int64) name (bits expected) (bits actual)
  in
  let ln = Lognormal.create ~mu:1.3 ~sigma:0.8 in
  same "lognormal -> kernel"
    (Order_stats.lognormal_expected_min ~mu:1.3 ~sigma:0.8 64)
    (Min_dist.expectation ln ~n:64);
  same "shifted lognormal -> kernel"
    (Order_stats.lognormal_expected_min ~mu:1.3 ~sigma:0.8 ~x0:7. 64)
    (Min_dist.expectation (Lognormal.shifted ~x0:7. ~mu:1.3 ~sigma:0.8) ~n:64);
  let wide = Lognormal.create ~mu:0. ~sigma:3.5 in
  same "sigma outside the kernel's domain -> quadrature"
    (Order_stats.expected_min wide 64)
    (Min_dist.expectation wide ~n:64);
  let n = (1 lsl 20) + 1 in
  same "n outside the kernel's domain -> quadrature"
    (Order_stats.expected_min ln n) (Min_dist.expectation ln ~n);
  same "weibull -> closed form"
    (Order_stats.weibull_expected_min ~shape:1.5 ~scale:40. 64)
    (Min_dist.expectation (Weibull.create ~shape:1.5 ~scale:40.) ~n:64);
  let g = Gamma_dist.create ~shape:2. ~rate:0.1 in
  same "gamma -> quadrature" (Order_stats.expected_min g 64) (Min_dist.expectation g ~n:64)

let test_min_dist_weibull_closed_vs_integrator () =
  (* The closed form against the survival quadrature it replaces: 1e-8
     relative for n = 1..4096.  Where they differ by more, the quadrature
     must be the one that is off, against the exact value
     scale·n^(-1/k)·Γ(1 + 1/k) with Γ taken from its known values. *)
  let scale = 1.7 in
  List.iter
    (fun (shape, gamma) ->
      let law = Weibull.create ~shape ~scale in
      let off = ref 0 in
      for n = 1 to 4096 do
        let closed = Min_dist.expectation law ~n in
        let q = Order_stats.expected_min law n in
        if rel_err q closed > 1e-8 then begin
          incr off;
          let exact = scale *. (float_of_int n ** (-1. /. shape)) *. gamma in
          if not (rel_err exact closed <= 1e-12 && rel_err exact q > 1e-8) then
            Alcotest.failf "shape %g n %d: closed %.17g, quadrature %.17g, exact %.17g"
              shape n closed q exact
        end
      done;
      (* The quadrature stops its panels about 1.9e-8 short on the heavy
         tail of shape 0.5; it is within 1e-8 on the others. *)
      if shape <> 0.5 then
        Alcotest.(check int) (Printf.sprintf "shape %g: quadrature off" shape) 0 !off)
    [ (0.5, 2.); (1., 1.); (2., sqrt Float.pi /. 2.); (5., 0.91816874239976061064) ]

let test_min_dist_expectation_matches_mc () =
  let d = Lognormal.shifted ~x0:100. ~mu:4. ~sigma:1.2 in
  let exact = Min_dist.expectation d ~n:16 in
  let rng = Rng.create ~seed:77 in
  let reps = 60_000 in
  let acc = ref 0. in
  for _ = 1 to reps do
    let m = ref infinity in
    for _ = 1 to 16 do
      let x = d.Distribution.sample rng in
      if x < !m then m := x
    done;
    acc := !acc +. !m
  done;
  let mc = !acc /. float_of_int reps in
  if rel_err exact mc > 0.02 then Alcotest.failf "E[Z^16] %g vs MC %g" exact mc

let test_min_dist_quantile_sampling () =
  let d = Exponential.create ~rate:0.01 in
  let z = Min_dist.distribution d ~n:4 in
  List.iter
    (fun p ->
      check_rel ~tol:1e-8 (Printf.sprintf "quantile %g" p) p
        (z.Distribution.cdf (z.Distribution.quantile p)))
    [ 0.1; 0.5; 0.9 ]

let test_exponential_params_detection () =
  (match Min_dist.exponential_params (Exponential.create ~rate:0.5) with
  | Some (x0, l) ->
    Alcotest.(check (float 1e-12)) "x0" 0. x0;
    Alcotest.(check (float 1e-12)) "lambda" 0.5 l
  | None -> Alcotest.fail "exponential not detected");
  (match Min_dist.exponential_params (Exponential.shifted ~x0:10. ~rate:0.5) with
  | Some (x0, _) -> Alcotest.(check (float 1e-12)) "shift" 10. x0
  | None -> Alcotest.fail "shifted exponential not detected");
  Alcotest.(check bool) "lognormal not exponential" true
    (Min_dist.exponential_params (Lognormal.create ~mu:1. ~sigma:1.) = None)

(* ------------------------------------------------------------------ *)
(* Speedup                                                             *)
(* ------------------------------------------------------------------ *)

let test_speedup_one_core_is_one () =
  List.iter
    (fun d -> check_rel ~tol:1e-12 "G_1 = 1" 1. (Speedup.at d ~cores:1))
    [ Exponential.create ~rate:0.1; Lognormal.create ~mu:2. ~sigma:1. ]

let test_speedup_exponential_linear () =
  let d = Exponential.create ~rate:0.001 in
  List.iter
    (fun n ->
      check_rel ~tol:1e-9
        (Printf.sprintf "linear at %d" n)
        (float_of_int n) (Speedup.at d ~cores:n))
    [ 2; 16; 128; 1024; 8192 ]

let test_speedup_shifted_exponential_formula () =
  (* Paper Section 3.3, x0 = 100, λ = 1/1000 (Figure 3): closed form. *)
  let d = Exponential.shifted ~x0:100. ~rate:0.001 in
  List.iter
    (fun n ->
      let fn = float_of_int n in
      check_rel ~tol:1e-9
        (Printf.sprintf "G_%d" n)
        (1100. /. (100. +. (1000. /. fn)))
        (Speedup.at d ~cores:n))
    [ 2; 10; 100; 1000 ];
  check_rel ~tol:1e-9 "limit 1 + 1/(x0 l)" 11. (Speedup.limit d);
  check_rel ~tol:1e-9 "tangent x0 l + 1" 1.1 (Speedup.tangent_at_origin d)

let test_speedup_limit_linear_case () =
  let d = Exponential.create ~rate:0.001 in
  Alcotest.(check bool) "infinite limit" true (Float.is_infinite (Speedup.limit d))

let test_speedup_monotone_nondecreasing () =
  let d = Lognormal.shifted ~x0:50. ~mu:4. ~sigma:1. in
  let pts = Speedup.curve d ~cores:[ 1; 2; 4; 8; 16; 32; 64 ] in
  let rec go prev = function
    | [] -> ()
    | p :: rest ->
      if p.Speedup.speedup < prev -. 1e-9 then
        Alcotest.failf "speed-up decreased at %d" p.Speedup.cores;
      go p.Speedup.speedup rest
  in
  go 0. pts

let test_speedup_bounded_by_limit () =
  let d = Exponential.shifted ~x0:500. ~rate:1e-4 in
  let lim = Speedup.limit d in
  List.iter
    (fun n ->
      let g = Speedup.at d ~cores:n in
      if g > lim +. 1e-9 then Alcotest.failf "G_%d = %g exceeds limit %g" n g lim)
    [ 10; 100; 10_000 ]

let test_speedup_exponential_curve_helper () =
  let pts = Speedup.exponential_curve ~x0:0. ~rate:0.01 ~cores:[ 1; 7; 50 ] in
  List.iter
    (fun p ->
      check_rel ~tol:1e-12
        (Printf.sprintf "exact linear %d" p.Speedup.cores)
        (float_of_int p.Speedup.cores)
        p.Speedup.speedup)
    pts

let test_speedup_efficiency () =
  (* Linear law: efficiency 1 everywhere, so the search hits max_cores. *)
  let linear = Exponential.create ~rate:0.001 in
  check_rel ~tol:1e-9 "linear efficiency" 1. (Speedup.efficiency linear ~cores:64);
  Alcotest.(check int) "linear never drops" 4096
    (Speedup.cores_for_efficiency ~max_cores:4096 linear ~threshold:0.9);
  (* Saturating law (Figure 3's parameters): closed-form cross-check.
     eff(n) = 1100 / (100 n + 1000) >= 0.4  ⇔  n <= 17.5, so 17. *)
  let saturating = Exponential.shifted ~x0:100. ~rate:0.001 in
  Alcotest.(check int) "saturating threshold 0.4" 17
    (Speedup.cores_for_efficiency saturating ~threshold:0.4);
  (* Efficiency at the boundary really straddles the threshold. *)
  Alcotest.(check bool) "eff(17) >= 0.4" true
    (Speedup.efficiency saturating ~cores:17 >= 0.4);
  Alcotest.(check bool) "eff(18) < 0.4" true
    (Speedup.efficiency saturating ~cores:18 < 0.4);
  (match Speedup.cores_for_efficiency saturating ~threshold:1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold 1.5 accepted")

let test_speedup_rejects_infinite_mean () =
  match Speedup.at (Levy.create ~scale:1.) ~cores:4 with
  | exception Invalid_argument _ -> ()
  | v -> Alcotest.failf "Levy speed-up returned %g" v

(* ------------------------------------------------------------------ *)
(* Table 5 regression: the paper's predicted rows from its parameters   *)
(* ------------------------------------------------------------------ *)

let test_table5_ai700_predicted () =
  let law = Paper_data.fitted_law Paper_data.AI700 in
  List.iter
    (fun (n, expected) ->
      let g = Speedup.at law ~cores:n in
      (* The paper prints 3 significant digits. *)
      if abs_float (g -. expected) > 0.06 *. Float.max 1. expected then
        Alcotest.failf "AI700 G_%d: paper %g, model %g" n expected g)
    (Paper_data.table5_predicted Paper_data.AI700);
  check_rel ~tol:1e-4 "AI700 limit" 90.7087 (Speedup.limit law)

let test_table5_ms200_predicted () =
  let law = Paper_data.fitted_law Paper_data.MS200 in
  List.iter
    (fun (n, expected) ->
      let g = Speedup.at law ~cores:n in
      if abs_float (g -. expected) > 0.06 *. Float.max 1. expected then
        Alcotest.failf "MS200 G_%d: paper %g, model %g" n expected g)
    (Paper_data.table5_predicted Paper_data.MS200)

let test_table5_costas21_predicted () =
  let law = Paper_data.fitted_law Paper_data.Costas21 in
  List.iter
    (fun (n, expected) ->
      check_rel ~tol:1e-6 (Printf.sprintf "Costas21 G_%d" n) expected
        (Speedup.at law ~cores:n))
    (Paper_data.table5_predicted Paper_data.Costas21)

(* Golden regression for the predicted speed-up tables behind Figures
   9/11/13: the exact values this implementation produces on the paper's
   fitted laws, at 10 significant digits.  Unlike the paper-row checks
   above (6% — the paper prints 3 digits), these pin the quadrature
   itself: any change to the integrator, the min-distribution transform or
   the law parameterizations shows up here first. *)
let golden_speedups =
  [
    ( Paper_data.MS200,
      [ (16, 15.93807435); (32, 22.04152891); (64, 28.28165144);
        (128, 34.25820356); (256, 39.6980356) ] );
    ( Paper_data.AI700,
      [ (16, 13.72961086); (32, 23.84939462); (64, 37.76857222);
        (128, 53.3314351); (256, 67.17053063) ] );
    ( Paper_data.Costas21,
      (* Exponential law: exactly linear, closed form. *)
      [ (16, 16.); (32, 32.); (64, 64.); (128, 128.); (256, 256.) ] );
  ]

let test_golden_speedup_tables () =
  List.iter
    (fun (b, table) ->
      let law = Paper_data.fitted_law b in
      let tol = match b with Paper_data.Costas21 -> 1e-9 | _ -> 1e-6 in
      List.iter
        (fun (n, expected) ->
          check_rel ~tol
            (Printf.sprintf "%s G_%d" (Paper_data.benchmark_name b) n)
            expected
            (Speedup.at law ~cores:n))
        table)
    golden_speedups

let test_golden_speedups_pool_invariant () =
  (* The figures behind 9/11/13 must not depend on the executor: the
     prediction made under a context without a pool, with a pool of 1 and
     with a pool of 4 must equal the bare curve to the last bit. *)
  List.iter
    (fun (b, table) ->
      let law = Paper_data.fitted_law b in
      let cores = List.map fst table in
      let serial = Speedup.curve law ~cores in
      let predicted ctx =
        (Predict.of_distribution ?ctx ~label:"golden" ~cores law).Predict.curve
      in
      Lv_exec.Pool.with_pool ~domains:1 @@ fun p1 ->
      Lv_exec.Pool.with_pool ~domains:4 @@ fun p4 ->
      let name tag =
        Printf.sprintf "%s %s" (Paper_data.benchmark_name b) tag
      in
      Alcotest.(check bool) (name "no pool bit-identical") true
        (serial = predicted None);
      Alcotest.(check bool) (name "pool=1 bit-identical") true
        (serial = predicted (Some (Lv_context.Context.make ~pool:p1 ())));
      Alcotest.(check bool) (name "pool=4 bit-identical") true
        (serial = predicted (Some (Lv_context.Context.make ~pool:p4 ()))))
    golden_speedups

let test_golden_speedups_cover_paper_cores () =
  List.iter
    (fun (_, table) ->
      Alcotest.(check (list int)) "golden rows cover the paper's core counts"
        Paper_data.cores (List.map fst table))
    golden_speedups

let test_paper_data_consistency () =
  (* Fitted laws reproduce Table 2's means within the paper's rounding. *)
  let ai = Paper_data.fitted_law Paper_data.AI700 in
  check_rel ~tol:1e-3 "AI700 mean = Table 2 mean"
    (Paper_data.table2_iterations Paper_data.AI700).Paper_data.mean
    ai.Distribution.mean;
  let costas = Paper_data.fitted_law Paper_data.Costas21 in
  check_rel ~tol:0.02 "Costas21 mean"
    (Paper_data.table2_iterations Paper_data.Costas21).Paper_data.mean
    costas.Distribution.mean;
  (* Table ordering sanity: min <= median <= mean <= max on every row. *)
  List.iter
    (fun b ->
      List.iter
        (fun (s : Paper_data.seq_stats) ->
          Alcotest.(check bool) "ordered" true
            (s.Paper_data.min <= s.Paper_data.median
            && s.Paper_data.median <= s.Paper_data.mean
            && s.Paper_data.mean <= s.Paper_data.max))
        [ Paper_data.table1_seconds b; Paper_data.table2_iterations b ])
    Paper_data.benchmarks

(* ------------------------------------------------------------------ *)
(* Fit                                                                 *)
(* ------------------------------------------------------------------ *)

let test_fit_recovers_exponential () =
  let rng = Rng.create ~seed:201 in
  let d = Exponential.create ~rate:5.4e-9 in
  let xs = Distribution.sample_array d rng 650 in
  let report = Fit.fit xs in
  match report.Fit.best with
  | Some f ->
    (* Exponential data: an exponential-family candidate must be accepted. *)
    let ok =
      List.exists
        (fun g ->
          g.Fit.ks.Kolmogorov.accept
          && (g.Fit.candidate = Fit.Exponential || g.Fit.candidate = Fit.Shifted_exponential))
        report.Fit.accepted
    in
    Alcotest.(check bool) "exponential family accepted" true ok;
    Alcotest.(check bool) "best has max p" true
      (List.for_all
         (fun g -> g.Fit.ks.Kolmogorov.p_value <= f.Fit.ks.Kolmogorov.p_value)
         report.Fit.fits)
  | None -> Alcotest.fail "nothing accepted on clean exponential data"

let test_fit_recovers_lognormal_rejects_exponential () =
  let rng = Rng.create ~seed:203 in
  let d = Lognormal.create ~mu:12. ~sigma:1.34 in
  let xs = Distribution.sample_array d rng 650 in
  let report = Fit.fit xs in
  let find c = List.find_opt (fun f -> f.Fit.candidate = c) report.Fit.fits in
  (match find Fit.Lognormal with
  | Some f -> Alcotest.(check bool) "lognormal accepted" true f.Fit.ks.Kolmogorov.accept
  | None -> Alcotest.fail "lognormal missing");
  (match find Fit.Exponential with
  | Some f ->
    Alcotest.(check bool) "exponential rejected on lognormal data" false
      f.Fit.ks.Kolmogorov.accept
  | None -> Alcotest.fail "exponential missing");
  (* The paper's observation: gaussian and Lévy fail on runtime data. *)
  (match find Fit.Normal with
  | Some f -> Alcotest.(check bool) "normal rejected" false f.Fit.ks.Kolmogorov.accept
  | None -> Alcotest.fail "normal missing")

let test_fit_one_inapplicable () =
  (* Lognormal cannot be estimated on data containing zero. *)
  Alcotest.(check bool) "lognormal on zero data" true
    (Fit.fit_one Fit.Lognormal [| 0.; 1.; 2. |] = None)

let test_fit_sort_nan_p_value_sinks () =
  (* A degenerate KS input can yield a NaN p-value; under the polymorphic
     compare previously used for the sort its position was unspecified (it
     could float to the top of [fits] and be picked as [best]).  The
     [Float.compare]-based order must sink it below every real p-value. *)
  let fake p =
    {
      Fit.candidate = Fit.Exponential;
      dist = Exponential.create ~rate:1.;
      ks =
        {
          Kolmogorov.statistic = 0.5;
          p_value = p;
          n = 10;
          accept = false;
          alpha = 0.05;
        };
    }
  in
  let sorted =
    List.sort Fit.compare_by_p_value [ fake Float.nan; fake 0.2; fake 0.9 ]
  in
  (match List.map (fun f -> f.Fit.ks.Kolmogorov.p_value) sorted with
  | [ a; b; c ] ->
    Alcotest.(check (float 0.)) "best first" 0.9 a;
    Alcotest.(check (float 0.)) "then the rest" 0.2 b;
    Alcotest.(check bool) "NaN sinks last" true (Float.is_nan c)
  | _ -> Alcotest.fail "three fits in, three fits out");
  (* And the full pipeline never crowns the NaN candidate: order is total,
     sort is stable, comparator never sees an unspecified case. *)
  Alcotest.(check int) "NaN vs NaN ties" 0
    (Fit.compare_by_p_value (fake Float.nan) (fake Float.nan));
  Alcotest.(check bool) "NaN loses to 0" true
    (Fit.compare_by_p_value (fake 0.) (fake Float.nan) < 0)

let test_fit_candidate_names_roundtrip () =
  List.iter
    (fun c ->
      match Fit.candidate_of_string (Fit.candidate_name c) with
      | Some c' -> Alcotest.(check bool) "round trip" true (c = c')
      | None -> Alcotest.failf "no round trip for %s" (Fit.candidate_name c))
    Fit.all_candidates;
  Alcotest.(check bool) "unknown name" true (Fit.candidate_of_string "zeta" = None)

let test_fit_prefers_shifted_variant () =
  (* Data with a genuine shift: when both exponential flavours are accepted
     the shifted one must end up as [best], whatever the p-value coin toss
     says. *)
  let rng = Rng.create ~seed:205 in
  let d = Exponential.shifted ~x0:2_000. ~rate:1e-4 in
  let xs = Distribution.sample_array d rng 650 in
  let report = Fit.fit ~candidates:Fit.paper_candidates xs in
  let accepted c =
    List.exists (fun f -> f.Fit.candidate = c) report.Fit.accepted
  in
  if accepted Fit.Exponential && accepted Fit.Shifted_exponential then
    match report.Fit.best with
    | Some f ->
      Alcotest.(check string) "shifted preferred" "shifted-exponential"
        (Fit.candidate_name f.Fit.candidate)
    | None -> Alcotest.fail "nothing accepted"

let test_fit_subset_of_candidates () =
  let rng = Rng.create ~seed:207 in
  let xs = Distribution.sample_array (Exponential.create ~rate:1.) rng 300 in
  let report = Fit.fit ~candidates:[ Fit.Exponential; Fit.Normal ] xs in
  Alcotest.(check int) "only requested candidates" 2 (List.length report.Fit.fits)

let test_fit_span_counts_accepted () =
  (* The "fit" span reports how many candidates passed KS: on exponential
     data some do and the normal does not, so a count stuck at 0 or at the
     candidate total would both fail. *)
  let rng = Rng.create ~seed:208 in
  let xs = Distribution.sample_array (Exponential.create ~rate:1.) rng 300 in
  let sink = Lv_telemetry.Sink.memory () in
  let report =
    Fit.fit ~ctx:(Lv_context.Context.make ~telemetry:sink ())
      ~candidates:[ Fit.Exponential; Fit.Shifted_exponential; Fit.Normal ] xs
  in
  let n_accepted = List.length report.Fit.accepted in
  Alcotest.(check bool) "some but not all accepted" true
    (n_accepted > 0 && n_accepted < List.length report.Fit.fits);
  match
    List.filter
      (fun e -> e.Lv_telemetry.Event.path = "fit")
      (Lv_telemetry.Sink.events sink)
  with
  | [ e ] ->
    Alcotest.(check (option int)) "span accepted field" (Some n_accepted)
      (Option.bind (Lv_telemetry.Event.field "accepted" e)
         Lv_telemetry.Json.to_int)
  | es -> Alcotest.failf "expected one fit span, got %d" (List.length es)

let test_fit_instantiate_roundtrips_every_candidate () =
  (* The artifact cache persists a fit as (candidate, dist.params) and
     rebuilds the law with Fit.instantiate: for every candidate, fitting,
     reading the params back and instantiating must reproduce the same
     distribution (pdf/cdf agree at probe points). *)
  let rng = Rng.create ~seed:209 in
  let xs =
    Distribution.sample_array (Lognormal.create ~mu:3. ~sigma:0.8) rng 300
  in
  let fitted = ref 0 in
  List.iter
    (fun candidate ->
      match Fit.fit_one candidate xs with
      | None -> ()
      | Some f ->
        incr fitted;
        let name = Fit.candidate_name candidate in
        let rebuilt =
          Fit.instantiate candidate f.Fit.dist.Distribution.params
        in
        List.iter
          (fun q ->
            let x = f.Fit.dist.Distribution.quantile q in
            check_rel ~tol:1e-12
              (Printf.sprintf "%s cdf at q=%g" name q)
              (f.Fit.dist.Distribution.cdf x)
              (rebuilt.Distribution.cdf x);
            check_rel ~tol:1e-12
              (Printf.sprintf "%s pdf at q=%g" name q)
              (f.Fit.dist.Distribution.pdf x)
              (rebuilt.Distribution.pdf x))
          [ 0.1; 0.3; 0.5; 0.7; 0.9 ])
    Fit.all_candidates;
  (* Positive lognormal data: every family's estimator applies. *)
  Alcotest.(check int) "every candidate fitted"
    (List.length Fit.all_candidates)
    !fitted

(* ------------------------------------------------------------------ *)
(* Predict                                                             *)
(* ------------------------------------------------------------------ *)

let test_predict_of_distribution_replays_paper () =
  let p =
    Predict.of_distribution ~label:"AI 700" ~cores:Paper_data.cores
      (Paper_data.fitted_law Paper_data.AI700)
  in
  let rows = Predict.compare p ~measured:(Paper_data.table5_experimental Paper_data.AI700) in
  Alcotest.(check int) "all core counts joined" 5 (List.length rows);
  (* The paper's own accuracy claim: deviation bounded by ~30% up to 256. *)
  Alcotest.(check bool) "within the paper's deviation band" true
    (Predict.max_abs_relative_error rows < 0.45)

let test_predict_of_dataset_end_to_end () =
  let rng = Rng.create ~seed:211 in
  (* x0 comparable to 1/λ so the shift is statistically identifiable — with
     x0 << 1/λ the pipeline may legitimately pick the plain exponential, the
     paper's own Costas 21 observation. *)
  let law = Exponential.shifted ~x0:50_000. ~rate:1e-5 in
  let ds = Lv_multiwalk.Dataset.synthetic ~label:"synthetic" law ~rng 650 in
  let p = Predict.of_dataset ~cores:[ 2; 16; 256 ] ds in
  (* The fitted law should be close to the truth; compare speed-ups. *)
  List.iter
    (fun pt ->
      let truth = Speedup.at law ~cores:pt.Speedup.cores in
      if rel_err truth pt.Speedup.speedup > 0.12 then
        Alcotest.failf "predicted %g vs true %g at %d" pt.Speedup.speedup truth
          pt.Speedup.cores)
    p.Predict.curve;
  Alcotest.(check bool) "fit report present" true (p.Predict.fit.Fit.sample_size = 650)

let test_predict_compare_drops_unmatched () =
  let p =
    Predict.of_distribution ~label:"x" ~cores:[ 2; 4 ] (Exponential.create ~rate:1.)
  in
  let rows = Predict.compare p ~measured:[ (4, 4.2); (99, 1.) ] in
  Alcotest.(check int) "only matching cores" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check int) "core 4" 4 r.Predict.cores;
  check_rel ~tol:1e-9 "relative error" ((4. -. 4.2) /. 4.2) r.Predict.relative_error

let test_predict_relative_error_sign () =
  let p = Predict.of_distribution ~label:"x" ~cores:[ 8 ] (Exponential.create ~rate:1.) in
  let rows = Predict.compare p ~measured:[ (8, 4.) ] in
  (* Prediction 8 vs measured 4: overprediction, positive error. *)
  Alcotest.(check bool) "overprediction positive" true
    ((List.hd rows).Predict.relative_error > 0.)

let test_max_abs_relative_error_empty_is_nan () =
  (* An empty join means *no* core counts matched: 0 there would read as a
     perfect prediction. *)
  Alcotest.(check bool) "nan on empty" true
    (Float.is_nan (Predict.max_abs_relative_error []));
  let p = Predict.of_distribution ~label:"x" ~cores:[ 8 ] (Exponential.create ~rate:1.) in
  Alcotest.(check bool) "still nan when nothing joins" true
    (Float.is_nan
       (Predict.max_abs_relative_error (Predict.compare p ~measured:[ (16, 4.) ])));
  Alcotest.(check bool) "finite on a non-empty join" true
    (Float.is_finite
       (Predict.max_abs_relative_error (Predict.compare p ~measured:[ (8, 4.) ])))

let test_of_distribution_carries_empty_report () =
  let p = Predict.of_distribution ~label:"x" ~cores:[ 2 ] (Exponential.create ~rate:1.) in
  Alcotest.(check bool) "the shared Fit.empty_report" true
    (p.Predict.fit = Fit.empty_report);
  Alcotest.(check int) "zero observations" 0 p.Predict.fit.Fit.sample_size;
  Alcotest.(check bool) "no best fit" true (p.Predict.fit.Fit.best = None)

(* ------------------------------------------------------------------ *)
(* Bridge: plug-in measurement vs analytic model                       *)
(* ------------------------------------------------------------------ *)

let test_plugin_matches_model_on_synthetic_pool () =
  (* The empirical multi-walk estimator over a large synthetic pool must
     agree with the analytic E[Z^(n)] of the generating law — the identity
     that lets the reproduction stand in for the paper's cluster. *)
  let rng = Rng.create ~seed:220 in
  let law = Lognormal.shifted ~x0:500. ~mu:7. ~sigma:1.1 in
  let pool = Lv_multiwalk.Dataset.synthetic ~label:"bridge" law ~rng 30_000 in
  let emp = Lv_multiwalk.Dataset.empirical pool in
  List.iter
    (fun n ->
      let analytic = Min_dist.expectation law ~n in
      let plugin = Lv_multiwalk.Sim.expected_runtime emp ~cores:n in
      if rel_err analytic plugin > 0.05 then
        Alcotest.failf "n=%d: analytic %g vs plug-in %g" n analytic plugin)
    [ 1; 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_table_alignment () =
  let s =
    Report.table ~title:"T" ~header:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  (* Each printed row has the same width. *)
  (match String.split_on_char '\n' (String.trim s) with
  | _ :: header :: _sep :: rows ->
    List.iter
      (fun r -> Alcotest.(check int) "width" (String.length header) (String.length r))
      rows
  | _ -> Alcotest.fail "table shape")

let test_report_float_cell () =
  Alcotest.(check string) "integer" "42" (Report.float_cell 42.);
  Alcotest.(check string) "nan" "-" (Report.float_cell nan);
  Alcotest.(check string) "decimals" "3.14" (Report.float_cell ~decimals:2 3.14159)

let test_report_speedup_series () =
  let s =
    Report.speedup_series ~title:"curve"
      [ { Speedup.cores = 1; speedup = 1. }; { Speedup.cores = 2; speedup = 2. } ]
  in
  Alcotest.(check bool) "mentions title" true (String.length s > 5)

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Where the work runs: serial fits and quadratures, no stray domains   *)
(* ------------------------------------------------------------------ *)

(* Threads of this process, from /proc/self/status; [None] where that
   file does not exist. *)
let threads () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "Threads: %d" Fun.id)
  with
  | n -> n
  | exception Sys_error _ -> None

(* A joined domain's threads may take a moment to exit: poll until the
   count is at most [at_most], or until it has held still for three
   readings when [at_most] is not given. *)
let settled_threads ?at_most () =
  let rec go prev still tries =
    let settled =
      match (at_most, prev) with
      | Some m, Some n -> n <= m
      | None, _ -> still >= 3
      | Some _, None -> true
    in
    if settled || tries = 0 then prev
    else begin
      Unix.sleepf 0.02;
      let n = threads () in
      go n (if n = prev then still + 1 else 0) (tries - 1)
    end
  in
  go (threads ()) 0 100

let test_no_pool_spawns_no_domains () =
  (* The first spawned domain starts a backup thread for the main domain
     that lives until exit; start it before counting. *)
  Domain.join (Domain.spawn ignore);
  match settled_threads () with
  | None -> Alcotest.skip ()
  | Some before ->
    let check what f =
      ignore (f ());
      Alcotest.(check (option int))
        (what ^ " leaves the thread count unchanged") (Some before)
        (settled_threads ~at_most:before ())
    in
    let rng = Rng.create ~seed:211 in
    let ds =
      Lv_multiwalk.Dataset.synthetic ~label:"threads"
        (Exponential.create ~rate:0.01) ~rng 200
    in
    check "Fit.fit" (fun () -> Fit.fit ds.Lv_multiwalk.Dataset.values);
    check "Predict.of_dataset" (fun () ->
        Predict.of_dataset ~cores:[ 2; 16; 256 ] ds);
    check "Race.wall_clock" (fun () ->
        Lv_multiwalk.Race.wall_clock ~seed:29 ~walkers:2 (fun () ->
            Lv_problems.Queens.pack 15))

let test_predict_speedup_spans_in_input_order () =
  let sink = Lv_telemetry.Sink.memory () in
  let cores = [ 256; 2; 32; 1; 8 ] in
  let law = Lognormal.create ~mu:8. ~sigma:1.2 in
  let p =
    Predict.of_distribution ~ctx:(Lv_context.Context.make ~telemetry:sink ())
      ~label:"spans" ~cores law
  in
  let spans =
    List.filter
      (fun e -> e.Lv_telemetry.Event.path = "predict/predict.speedup")
      (Lv_telemetry.Sink.events sink)
  in
  let field name e =
    Option.get (Lv_telemetry.Event.field name e)
  in
  Alcotest.(check (list int)) "one span per core count, in input order" cores
    (List.map
       (fun e -> Option.get (Lv_telemetry.Json.to_int (field "cores" e)))
       spans);
  Alcotest.(check bool) "each span carries its curve point" true
    (List.for_all2
       (fun e (pt : Speedup.point) ->
         field "speedup" e = Lv_telemetry.Json.Float pt.Speedup.speedup)
       spans p.Predict.curve)

let test_fit_candidate_spans_keep_path_and_count () =
  (* One span per requested candidate, inapplicable ones included, under
     the fixed path "fit/fit.candidate" even when the fit is nested in
     another span. *)
  let sink = Lv_telemetry.Sink.memory () in
  let xs = [| -1.; 2.; 3.; 5.; 8.; 13.; 21.; 34. |] in
  let candidates = [ Fit.Normal; Fit.Exponential; Fit.Lognormal; Fit.Levy ] in
  ignore
    (Lv_telemetry.Span.run sink ~name:"outer" (fun () ->
         Fit.fit ~ctx:(Lv_context.Context.make ~telemetry:sink ()) ~candidates xs));
  let spans =
    List.filter
      (fun e -> Lv_telemetry.Event.name e = "fit.candidate")
      (Lv_telemetry.Sink.events sink)
  in
  Alcotest.(check (list string)) "paths"
    (List.map (fun _ -> "fit/fit.candidate") candidates)
    (List.map (fun e -> e.Lv_telemetry.Event.path) spans);
  Alcotest.(check (list string)) "one per candidate, in order"
    (List.map Fit.candidate_name candidates)
    (List.map
       (fun e ->
         match Lv_telemetry.Event.field "candidate" e with
         | Some (Lv_telemetry.Json.String c) -> c
         | _ -> "?")
       spans);
  Alcotest.(check bool) "some candidate inapplicable" true
    (List.exists
       (fun e ->
         Lv_telemetry.Event.field "outcome" e
         = Some (Lv_telemetry.Json.String "inapplicable"))
       spans)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"exponential speed-up below core count (x0 > 0)" ~count:100
      (pair (float_range 1. 1e4) (float_range 1e-6 1.))
      (fun (x0, rate) ->
        let d = Exponential.shifted ~x0 ~rate in
        Speedup.at d ~cores:16 <= 16. +. 1e-9);
    Test.make ~name:"min-dist cdf dominates base cdf" ~count:100
      (pair (float_range 0. 1000.) (int_range 2 50))
      (fun (x, n) ->
        let d = Exponential.create ~rate:0.01 in
        Min_dist.cdf d ~n x >= d.Distribution.cdf x -. 1e-12);
    Test.make ~name:"speed-up of exponential equals n exactly" ~count:50
      (pair (int_range 1 2000) (float_range 1e-6 10.))
      (fun (n, rate) ->
        let d = Exponential.create ~rate in
        rel_err (float_of_int n) (Speedup.at d ~cores:n) < 1e-9);
    Test.make ~name:"compare join size bounded" ~count:50
      (list_of_size (Gen.int_range 0 10) (int_range 1 64))
      (fun cores ->
        let cores = List.sort_uniq compare cores in
        if cores = [] then true
        else begin
          let p =
            Predict.of_distribution ~label:"q" ~cores (Exponential.create ~rate:1.)
          in
          let measured = List.map (fun c -> (c, 1.)) cores in
          List.length (Predict.compare p ~measured) = List.length cores
        end);
  ]

let () =
  Alcotest.run "lv_core"
    [
      ( "where work runs",
        [
          (* First: nothing before it may have started a domain. *)
          Alcotest.test_case "no pool spawns no domains" `Quick
            test_no_pool_spawns_no_domains;
          Alcotest.test_case "predict.speedup spans in input order" `Quick
            test_predict_speedup_spans_in_input_order;
          Alcotest.test_case "fit.candidate spans keep path and count" `Quick
            test_fit_candidate_spans_keep_path_and_count;
        ] );
      ( "min_dist",
        [
          Alcotest.test_case "cdf formula" `Quick test_min_dist_cdf_formula;
          Alcotest.test_case "pdf formula" `Quick test_min_dist_pdf_formula;
          Alcotest.test_case "exponential closure" `Quick test_min_dist_exponential_is_exponential;
          Alcotest.test_case "n=1 identity" `Quick test_min_dist_n1_identity;
          Alcotest.test_case "closed vs numeric expectation" `Quick test_min_dist_expectation_closed_vs_numeric;
          Alcotest.test_case "expectation vs Monte Carlo" `Slow test_min_dist_expectation_matches_mc;
          Alcotest.test_case "quantile of the min law" `Quick test_min_dist_quantile_sampling;
          Alcotest.test_case "exponential detection" `Quick test_exponential_params_detection;
          Alcotest.test_case "lognormal and weibull fast paths" `Quick
            test_min_dist_routes_to_fast_paths;
          Alcotest.test_case "weibull closed form vs quadrature" `Quick
            test_min_dist_weibull_closed_vs_integrator;
        ] );
      ( "speedup",
        [
          Alcotest.test_case "G_1 = 1" `Quick test_speedup_one_core_is_one;
          Alcotest.test_case "exponential is linear" `Quick test_speedup_exponential_linear;
          Alcotest.test_case "shifted exponential closed form" `Quick test_speedup_shifted_exponential_formula;
          Alcotest.test_case "linear case has no limit" `Quick test_speedup_limit_linear_case;
          Alcotest.test_case "monotone" `Quick test_speedup_monotone_nondecreasing;
          Alcotest.test_case "bounded by limit" `Quick test_speedup_bounded_by_limit;
          Alcotest.test_case "curve helper" `Quick test_speedup_exponential_curve_helper;
          Alcotest.test_case "efficiency and provisioning" `Quick test_speedup_efficiency;
          Alcotest.test_case "infinite mean rejected" `Quick test_speedup_rejects_infinite_mean;
        ] );
      ( "table5 regression",
        [
          Alcotest.test_case "AI 700 predicted row" `Quick test_table5_ai700_predicted;
          Alcotest.test_case "MS 200 predicted row" `Quick test_table5_ms200_predicted;
          Alcotest.test_case "Costas 21 predicted row" `Quick test_table5_costas21_predicted;
          Alcotest.test_case "golden speed-up tables (Figs 9/11/13)" `Quick test_golden_speedup_tables;
          Alcotest.test_case "golden tables pool-size invariant" `Quick
            test_golden_speedups_pool_invariant;
          Alcotest.test_case "golden tables cover paper cores" `Quick test_golden_speedups_cover_paper_cores;
          Alcotest.test_case "paper data consistency" `Quick test_paper_data_consistency;
        ] );
      ( "fit",
        [
          Alcotest.test_case "recovers exponential" `Quick test_fit_recovers_exponential;
          Alcotest.test_case "lognormal vs exponential" `Quick test_fit_recovers_lognormal_rejects_exponential;
          Alcotest.test_case "inapplicable candidate" `Quick test_fit_one_inapplicable;
          Alcotest.test_case "NaN p-value sinks in sort" `Quick
            test_fit_sort_nan_p_value_sinks;
          Alcotest.test_case "candidate names" `Quick test_fit_candidate_names_roundtrip;
          Alcotest.test_case "shifted variant preferred" `Quick test_fit_prefers_shifted_variant;
          Alcotest.test_case "candidate subsets" `Quick test_fit_subset_of_candidates;
          Alcotest.test_case "span counts accepted" `Quick test_fit_span_counts_accepted;
          Alcotest.test_case "instantiate round-trips every candidate" `Quick
            test_fit_instantiate_roundtrips_every_candidate;
        ] );
      ( "predict",
        [
          Alcotest.test_case "replays the paper" `Quick test_predict_of_distribution_replays_paper;
          Alcotest.test_case "end to end on synthetic data" `Quick test_predict_of_dataset_end_to_end;
          Alcotest.test_case "compare join" `Quick test_predict_compare_drops_unmatched;
          Alcotest.test_case "error sign" `Quick test_predict_relative_error_sign;
          Alcotest.test_case "empty comparison is nan" `Quick
            test_max_abs_relative_error_empty_is_nan;
          Alcotest.test_case "of_distribution carries empty_report" `Quick
            test_of_distribution_carries_empty_report;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "plug-in = model on synthetic pools" `Slow
            test_plugin_matches_model_on_synthetic_pool;
        ] );
      ( "report",
        [
          Alcotest.test_case "table alignment" `Quick test_report_table_alignment;
          Alcotest.test_case "float cells" `Quick test_report_float_cell;
          Alcotest.test_case "series" `Quick test_report_speedup_series;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
