open Lv_stats
module Fit = Lv_core.Fit
module Speedup = Lv_core.Speedup
module Json = Lv_telemetry.Json

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  replicates : int;
  folds : int;
  level : float;
  trials : int;
}

let default_config = { replicates = 200; folds = 2; level = 0.95; trials = 0 }

let check_config c =
  if c.replicates < 2 then
    invalid_arg "Validate: replicates must be at least 2";
  if c.folds < 2 then invalid_arg "Validate: folds must be at least 2";
  if not (c.level > 0. && c.level < 1.) then
    invalid_arg "Validate: level must lie in (0, 1)";
  if c.trials < 0 then invalid_arg "Validate: trials must be nonnegative"

(* ------------------------------------------------------------------ *)
(* Deterministic RNG streams                                           *)
(* ------------------------------------------------------------------ *)

(* Replicates, folds and trials each draw from their own generator whose
   seed is a splitmix64 finalizer over (seed, salt, index).  The streams
   depend only on these integers — never on which pool worker runs the
   task or in what order — which is what makes every band byte-identical
   across pool sizes. *)
let stream_seed ~seed ~salt index =
  let open Int64 in
  let z =
    add
      (logxor (of_int seed) (mul (of_int salt) 0x9E3779B97F4A7C15L))
      (mul (of_int (index + 1)) 0xD1B54A32D192ED03L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFF_FFFF_FFFF_FFFFL)

let salt_bootstrap = 1
let salt_split = 2
let salt_trial = 3
let salt_trial_bands = 4

let stream_rng ~seed ~salt index =
  Rng.create ~seed:(stream_seed ~seed ~salt index)

(* ------------------------------------------------------------------ *)
(* Bootstrap confidence bands                                          *)
(* ------------------------------------------------------------------ *)

type param_band = { param : string; interval : Bootstrap.interval }
type curve_band = { cores : int; interval : Bootstrap.interval }

type bootstrap_report = {
  family : string;
  replicates : int;
  band_level : float;
  dropped : int;
  params : param_band list;
  curve : curve_band list;
}

(* Missing "x0" in a replicate means the shifted family collapsed to its
   unshifted special case on that resample: the shift is genuinely 0
   there, not missing data. *)
let replicate_param name params =
  match List.assoc_opt name params with
  | Some v -> Some v
  | None -> if name = "x0" then Some 0. else None

let bands_for ~pool ~replicates ~level ~seed ~cores
    ~candidate (base : Distribution.t) xs =
  if Array.length xs < 2 then
    invalid_arg "Validate.bootstrap_bands: need at least 2 observations";
  let emp = Empirical.of_array xs in
  let n = Array.length xs in
  let with_curve = Speedup.has_curve base in
  let replicate i =
    let rng = stream_rng ~seed ~salt:salt_bootstrap i in
    let sample = Empirical.resample emp rng n in
    match Fit.fit_one candidate sample with
    | None -> None
    | Some f ->
      let d = f.Fit.dist in
      let speedups =
        if with_curve && Speedup.has_curve d then
          List.map (fun c -> Speedup.at d ~cores:c) cores
        else List.map (fun _ -> nan) cores
      in
      Some (d.Distribution.params, speedups)
  in
  let results = Lv_exec.Pool.map pool replicate (Array.init replicates Fun.id) in
  let ok = Array.to_list results |> List.filter_map Fun.id in
  let dropped = replicates - List.length ok in
  if ok = [] then
    invalid_arg
      "Validate.bootstrap_bands: every replicate refit was inapplicable";
  let params =
    List.filter_map
      (fun (name, estimate) ->
        let values =
          List.filter_map (fun (ps, _) -> replicate_param name ps) ok
        in
        if values = [] then None
        else
          Some
            {
              param = name;
              interval =
                Bootstrap.percentile_interval ~level ~estimate
                  (Array.of_list values);
            })
      base.Distribution.params
  in
  let curve =
    if not with_curve then []
    else
      List.mapi
        (fun idx c ->
          let values = List.map (fun (_, ss) -> List.nth ss idx) ok in
          {
            cores = c;
            interval =
              Bootstrap.percentile_interval ~level
                ~estimate:(Speedup.at base ~cores:c)
                (Array.of_list values);
          })
        cores
  in
  {
    family = Fit.candidate_name candidate;
    replicates;
    band_level = level;
    dropped;
    params;
    curve;
  }

let bootstrap_bands ?pool ?replicates ?level ~seed ~cores ~report xs =
  let replicates =
    Option.value replicates ~default:default_config.replicates
  in
  let level = Option.value level ~default:default_config.level in
  check_config { default_config with replicates; level };
  let base = Fit.chosen report in
  bands_for ~pool ~replicates ~level ~seed ~cores
    ~candidate:base.Fit.candidate base.Fit.dist xs

(* ------------------------------------------------------------------ *)
(* Held-out cross-validation                                           *)
(* ------------------------------------------------------------------ *)

type fold_report = {
  fold : int;
  train_size : int;
  test_size : int;
  family : string;
  ks : Kolmogorov.result;
  speedup_err : float;
}

type holdout_report = {
  folds : fold_report list;
  rejections : int;
  mean_statistic : float;
  max_speedup_err : float;
}

(* Deterministic k-fold partition: a seeded permutation dealt round-robin,
   so fold sizes differ by at most one and the same seed always yields the
   same split. *)
let kfold_indices ~seed ~folds n =
  let rng = stream_rng ~seed ~salt:salt_split 0 in
  let perm = Rng.permutation rng n in
  Array.init folds (fun j ->
      let members = ref [] in
      for i = n - 1 downto 0 do
        if i mod folds = j then members := perm.(i) :: !members
      done;
      Array.of_list !members)

let holdout_fold ~alpha ~candidates ~cores ~fold ~train ~test =
  let fit = Fit.fit ~alpha ?candidates train in
  let f = Fit.chosen fit in
  let law = f.Fit.dist in
  let ks = Kolmogorov.test ~alpha test law.Distribution.cdf in
  let speedup_err =
    if not (Speedup.has_curve law) then nan
    else begin
      let emp = Empirical.of_array test in
      let mean = Empirical.mean emp in
      List.fold_left2
        (fun acc c expected ->
          let predicted = Speedup.at law ~cores:c in
          let measured = mean /. expected in
          Float.max acc (abs_float ((predicted /. measured) -. 1.)))
        0. cores
        (Empirical.expected_min_table emp cores)
    end
  in
  {
    fold;
    train_size = Array.length train;
    test_size = Array.length test;
    family = Fit.candidate_name f.Fit.candidate;
    ks;
    speedup_err;
  }

let holdout ?pool ?(alpha = Lv_context.Context.default.alpha) ?candidates
    ?folds ~seed ~cores xs =
  let folds = Option.value folds ~default:default_config.folds in
  if folds < 2 then invalid_arg "Validate.holdout: folds must be at least 2";
  let n = Array.length xs in
  if n < 2 * folds then
    invalid_arg
      (Printf.sprintf
         "Validate.holdout: %d observations cannot sustain %d folds (need \
          at least %d)"
         n folds (2 * folds));
  let fold_sets = kfold_indices ~seed ~folds n in
  let reports =
    (* One pool task per fold: each fits and checks its own split, and the
       reports are slotted by fold index. *)
    Lv_exec.Pool.map pool
      (fun j ->
        let test = Array.map (fun i -> xs.(i)) fold_sets.(j) in
        let in_test = Array.make n false in
        Array.iter (fun i -> in_test.(i) <- true) fold_sets.(j);
        let train =
          Array.of_seq
            (Seq.filter_map
               (fun i -> if in_test.(i) then None else Some xs.(i))
               (Seq.init n Fun.id))
        in
        holdout_fold ~alpha ~candidates ~cores ~fold:j ~train ~test)
      (Array.init folds Fun.id)
    |> Array.to_list
  in
  let rejections =
    List.length
      (List.filter (fun f -> not f.ks.Kolmogorov.accept) reports)
  in
  let mean_statistic =
    List.fold_left (fun a f -> a +. f.ks.Kolmogorov.statistic) 0. reports
    /. float_of_int folds
  in
  let max_speedup_err =
    List.fold_left (fun a f -> Float.max a f.speedup_err) 0. reports
  in
  { folds = reports; rejections; mean_statistic; max_speedup_err }

(* ------------------------------------------------------------------ *)
(* Simulation-based calibration oracle                                 *)
(* ------------------------------------------------------------------ *)

type oracle_report = {
  family : string;
  truth : (string * float) list;
  trials : int;
  runs : int;
  oracle_level : float;
  alpha : float;
  failures : int;
  param_coverage : (string * float) list;
  curve_coverage : float;
  mean_abs_rel_error : (string * float) list;
  ks_rejections : int;
}

type trial_outcome = {
  t_params : (string * float) list;  (** fitted parameters *)
  t_covered : (string * bool) list;  (** truth inside its band, per param *)
  t_curve : (bool * bool) list;  (** per core: (band exists, covers truth) *)
  t_rejected : bool;  (** held-out split-half KS rejected *)
}

let oracle ?pool ?(alpha = Lv_context.Context.default.alpha) ?replicates
    ?level ?trials ~seed ~cores ~runs ~candidate ~(truth : Distribution.t) () =
  let replicates =
    Option.value replicates ~default:default_config.replicates
  in
  let level = Option.value level ~default:default_config.level in
  let trials = Option.value trials ~default:200 in
  check_config { default_config with replicates; level };
  if trials <= 0 then invalid_arg "Validate.oracle: trials must be positive";
  if runs < 4 then invalid_arg "Validate.oracle: runs must be at least 4";
  let with_curve = Speedup.has_curve truth in
  let true_curve =
    if with_curve then List.map (fun c -> Speedup.at truth ~cores:c) cores
    else List.map (fun _ -> nan) cores
  in
  let one_trial t =
    let rng = stream_rng ~seed ~salt:salt_trial t in
    let xs = Distribution.sample_array truth rng runs in
    match Fit.fit_one candidate xs with
    | None -> None
    | Some f ->
      (* Bands run serially inside the trial: the trials themselves are the
         pool tasks, and the per-replicate streams keep the result
         identical either way. *)
      let bands =
        match
          bands_for ~pool:None ~replicates ~level
            ~seed:(stream_seed ~seed ~salt:salt_trial_bands t)
            ~cores ~candidate f.Fit.dist xs
        with
        | b -> Some b
        | exception Invalid_argument _ -> None
      in
      (match bands with
      | None -> None
      | Some bands ->
        let t_covered =
          List.filter_map
            (fun (name, true_value) ->
              match List.find_opt (fun b -> b.param = name) bands.params with
              | Some b -> Some (name, Bootstrap.covers b.interval true_value)
              | None -> None)
            truth.Distribution.params
        in
        let t_curve =
          List.map2
            (fun b true_g ->
              (with_curve, with_curve && Bootstrap.covers b.interval true_g))
            (if bands.curve = [] then
               List.map
                 (fun c ->
                   {
                     cores = c;
                     interval =
                       { Bootstrap.estimate = nan; lo = nan; hi = nan; level };
                   })
                 cores
             else bands.curve)
            true_curve
        in
        (* Held-out check: fit the family on 80% of a seeded shuffle,
           KS-test the remaining 20%.  The data genuinely comes from the
           family, so rejections at level alpha are false rejections.
           The 80/20 split (not 50/50) keeps the parameter-estimation
           drift term — of order sqrt(n_test / n_train) relative to the
           test statistic's own noise — small enough that the empirical
           rejection rate stays near alpha instead of inflating well
           above it. *)
        let split_rng = stream_rng ~seed:(seed + t) ~salt:salt_split 1 in
        let perm = Rng.permutation split_rng runs in
        let n_train = Int.max (runs / 2) (4 * runs / 5) in
        let train = Array.init n_train (fun i -> xs.(perm.(i))) in
        let test =
          Array.init (runs - n_train) (fun i -> xs.(perm.(n_train + i)))
        in
        (match Fit.fit_one candidate train with
        | None -> None
        | Some g ->
          let ks = Kolmogorov.test ~alpha test g.Fit.dist.Distribution.cdf in
          Some
            {
              t_params = f.Fit.dist.Distribution.params;
              t_covered;
              t_curve;
              t_rejected = not ks.Kolmogorov.accept;
            }))
  in
  let outcomes = Lv_exec.Pool.map pool one_trial (Array.init trials Fun.id) in
  let ok = Array.to_list outcomes |> List.filter_map Fun.id in
  let failures = trials - List.length ok in
  let n_ok = List.length ok in
  let frac count = if n_ok = 0 then nan else float_of_int count /. float_of_int n_ok in
  let param_coverage =
    List.map
      (fun (name, _) ->
        let covered =
          List.length
            (List.filter
               (fun o ->
                 match List.assoc_opt name o.t_covered with
                 | Some c -> c
                 | None -> false)
               ok)
        in
        (name, frac covered))
      truth.Distribution.params
  in
  let curve_coverage =
    if not with_curve then nan
    else begin
      let total = ref 0 and covered = ref 0 in
      List.iter
        (fun o ->
          List.iter
            (fun (exists, c) ->
              if exists then begin
                incr total;
                if c then incr covered
              end)
            o.t_curve)
        ok;
      if !total = 0 then nan
      else float_of_int !covered /. float_of_int !total
    end
  in
  let mean_abs_rel_error =
    List.map
      (fun (name, true_value) ->
        let errs =
          List.filter_map
            (fun o ->
              Option.map
                (fun v ->
                  (* Relative to the truth's own magnitude, so a rate of
                     3e-5 reports ~5% recovery error rather than ~0;
                     absolute only when the truth is exactly zero (a
                     degenerate shift). *)
                  abs_float (v -. true_value)
                  /. (if true_value = 0. then 1. else abs_float true_value))
                (replicate_param name o.t_params))
            ok
        in
        let mean =
          if errs = [] then nan
          else List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)
        in
        (name, mean))
      truth.Distribution.params
  in
  let ks_rejections =
    List.length (List.filter (fun o -> o.t_rejected) ok)
  in
  {
    family = Fit.candidate_name candidate;
    truth = truth.Distribution.params;
    trials;
    runs;
    oracle_level = level;
    alpha;
    failures;
    param_coverage;
    curve_coverage;
    mean_abs_rel_error;
    ks_rejections;
  }

(* ------------------------------------------------------------------ *)
(* Combined report                                                     *)
(* ------------------------------------------------------------------ *)

type report = {
  label : string;
  seed : int;
  alpha : float;
  cores : int list;
  config : config;
  sample_size : int;
  bootstrap : bootstrap_report;
  cross_validation : holdout_report;
  calibration : oracle_report option;
}

let run ?(ctx = Lv_context.Context.default) ?alpha ?candidates ~config ~seed
    ~cores ~label ~(report : Fit.report) xs =
  check_config config;
  let { Lv_context.Context.pool; telemetry; _ } = ctx in
  let alpha = Option.value alpha ~default:ctx.alpha in
  let n = Array.length xs in
  Lv_telemetry.Span.run telemetry ~name:"validate"
    ~fields:(fun () ->
      [
        ("label", Json.String label);
        ("sample_size", Json.Int n);
        ("replicates", Json.Int config.replicates);
        ("folds", Json.Int config.folds);
        ("trials", Json.Int config.trials);
      ])
  @@ fun () ->
  let span name fields f = Lv_telemetry.Span.run telemetry ~name ~fields f in
  let base = Fit.chosen report in
  let family = Json.String (Fit.candidate_name base.Fit.candidate) in
  let bootstrap =
    span "validate.bootstrap"
      (fun () ->
        [
          ("family", family);
          ("replicates", Json.Int config.replicates);
          ("level", Json.Float config.level);
        ])
    @@ fun () ->
    bootstrap_bands ?pool ~replicates:config.replicates ~level:config.level
      ~seed ~cores ~report xs
  in
  let cross_validation =
    span "validate.holdout"
      (fun () -> [ ("folds", Json.Int config.folds); ("sample_size", Json.Int n) ])
    @@ fun () ->
    holdout ?pool ~alpha ?candidates ~folds:config.folds ~seed ~cores xs
  in
  let calibration =
    if config.trials = 0 then None
    else
      (* Self-calibration: take the law the base fit selected as ground
         truth and check that the machinery recovers it from synthetic
         datasets of the same size. *)
      span "validate.oracle"
        (fun () ->
          [
            ("family", family);
            ("trials", Json.Int config.trials);
            ("runs", Json.Int n);
          ])
      @@ fun () ->
      Some
        (oracle ?pool ~alpha ~replicates:config.replicates ~level:config.level
           ~trials:config.trials ~seed ~cores ~runs:n
           ~candidate:base.Fit.candidate ~truth:base.Fit.dist ())
  in
  {
    label;
    seed;
    alpha;
    cores;
    config;
    sample_size = n;
    bootstrap;
    cross_validation;
    calibration;
  }

(* ------------------------------------------------------------------ *)
(* JSON round-trip (the artifact format)                               *)
(* ------------------------------------------------------------------ *)

let json_of_interval (i : Bootstrap.interval) =
  Json.Obj
    [
      ("estimate", Json.Float i.Bootstrap.estimate);
      ("lo", Json.Float i.Bootstrap.lo);
      ("hi", Json.Float i.Bootstrap.hi);
      ("level", Json.Float i.Bootstrap.level);
    ]

let json_of_pairs pairs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) pairs)

let to_json r =
  Json.Obj
    [
      ("label", Json.String r.label);
      ("seed", Json.Int r.seed);
      ("alpha", Json.Float r.alpha);
      ("cores", Json.List (List.map (fun c -> Json.Int c) r.cores));
      ( "config",
        Json.Obj
          [
            ("replicates", Json.Int r.config.replicates);
            ("folds", Json.Int r.config.folds);
            ("level", Json.Float r.config.level);
            ("trials", Json.Int r.config.trials);
          ] );
      ("sample_size", Json.Int r.sample_size);
      ( "bootstrap",
        Json.Obj
          [
            ("family", Json.String r.bootstrap.family);
            ("replicates", Json.Int r.bootstrap.replicates);
            ("level", Json.Float r.bootstrap.band_level);
            ("dropped", Json.Int r.bootstrap.dropped);
            ( "params",
              Json.Obj
                (List.map
                   (fun b -> (b.param, json_of_interval b.interval))
                   r.bootstrap.params) );
            ( "curve",
              Json.List
                (List.map
                   (fun (b : curve_band) ->
                     Json.Obj
                       [
                         ("cores", Json.Int b.cores);
                         ("interval", json_of_interval b.interval);
                       ])
                   r.bootstrap.curve) );
          ] );
      ( "cross_validation",
        Json.Obj
          [
            ( "folds",
              Json.List
                (List.map
                   (fun f ->
                     Json.Obj
                       [
                         ("fold", Json.Int f.fold);
                         ("train_size", Json.Int f.train_size);
                         ("test_size", Json.Int f.test_size);
                         ("family", Json.String f.family);
                         ("ks", Fit.ks_to_json f.ks);
                         ("speedup_err", Json.Float f.speedup_err);
                       ])
                   r.cross_validation.folds) );
            ("rejections", Json.Int r.cross_validation.rejections);
            ("mean_statistic", Json.Float r.cross_validation.mean_statistic);
            ("max_speedup_err", Json.Float r.cross_validation.max_speedup_err);
          ] );
      ( "calibration",
        match r.calibration with
        | None -> Json.Null
        | Some o ->
          Json.Obj
            [
              ("family", Json.String o.family);
              ("truth", json_of_pairs o.truth);
              ("trials", Json.Int o.trials);
              ("runs", Json.Int o.runs);
              ("level", Json.Float o.oracle_level);
              ("alpha", Json.Float o.alpha);
              ("failures", Json.Int o.failures);
              ("param_coverage", json_of_pairs o.param_coverage);
              ("curve_coverage", Json.Float o.curve_coverage);
              ("mean_abs_rel_error", json_of_pairs o.mean_abs_rel_error);
              ("ks_rejections", Json.Int o.ks_rejections);
            ] );
    ]

let of_json j =
  let open Json in
  let pairs_of v = List.map (fun (k, x) -> (k, float x)) (fields v) in
  let interval_of v =
    {
      Bootstrap.estimate = float (field "estimate" v);
      lo = float (field "lo" v);
      hi = float (field "hi" v);
      level = float (field "level" v);
    }
  in
  let cj = field "config" j in
  let config =
    {
      replicates = int (field "replicates" cj);
      folds = int (field "folds" cj);
      level = float (field "level" cj);
      trials = int (field "trials" cj);
    }
  in
  let bj = field "bootstrap" j in
  let bootstrap =
    {
      family = string (field "family" bj);
      replicates = int (field "replicates" bj);
      band_level = float (field "level" bj);
      dropped = int (field "dropped" bj);
      params =
        List.map
          (fun (k, v) -> { param = k; interval = interval_of v })
          (fields (field "params" bj));
      curve =
        List.map
          (fun v ->
            {
              cores = int (field "cores" v);
              interval = interval_of (field "interval" v);
            })
          (list (field "curve" bj));
    }
  in
  let hj = field "cross_validation" j in
  let cross_validation =
    {
      folds =
        List.map
          (fun v ->
            {
              fold = int (field "fold" v);
              train_size = int (field "train_size" v);
              test_size = int (field "test_size" v);
              family = string (field "family" v);
              ks = Fit.ks_of_json (field "ks" v);
              speedup_err = float (field "speedup_err" v);
            })
          (list (field "folds" hj));
      rejections = int (field "rejections" hj);
      mean_statistic = float (field "mean_statistic" hj);
      max_speedup_err = float (field "max_speedup_err" hj);
    }
  in
  let calibration =
    match field "calibration" j with
    | Null -> None
    | oj ->
      Some
        {
          family = string (field "family" oj);
          truth = pairs_of (field "truth" oj);
          trials = int (field "trials" oj);
          runs = int (field "runs" oj);
          oracle_level = float (field "level" oj);
          alpha = float (field "alpha" oj);
          failures = int (field "failures" oj);
          param_coverage = pairs_of (field "param_coverage" oj);
          curve_coverage = float (field "curve_coverage" oj);
          mean_abs_rel_error = pairs_of (field "mean_abs_rel_error" oj);
          ks_rejections = int (field "ks_rejections" oj);
        }
  in
  {
    label = string (field "label" j);
    seed = int (field "seed" j);
    alpha = float (field "alpha" j);
    cores = List.map int (list (field "cores" j));
    config;
    sample_size = int (field "sample_size" j);
    bootstrap;
    cross_validation;
    calibration;
  }

let save_json r path =
  Lv_telemetry.File.write path (fun oc ->
      output_string oc (Json.to_string (to_json r) ^ "\n"))

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let save_csv r path =
  let b = Buffer.create 1024 in
  let g v = Printf.sprintf "%.17g" v in
  let row kind name cores estimate lo hi level =
    Buffer.add_string b
      (Printf.sprintf "%s,%s,%s,%s,%s,%s,%s\n" kind name cores estimate lo hi
         level)
  in
  Buffer.add_string b "kind,name,cores,estimate,lo,hi,level\n";
  List.iter
    (fun (p : param_band) ->
      let i = p.interval in
      row "bootstrap-param" p.param "" (g i.Bootstrap.estimate)
        (g i.Bootstrap.lo) (g i.Bootstrap.hi) (g i.Bootstrap.level))
    r.bootstrap.params;
  List.iter
    (fun c ->
      let i = c.interval in
      row "bootstrap-curve" r.bootstrap.family (string_of_int c.cores)
        (g i.Bootstrap.estimate) (g i.Bootstrap.lo) (g i.Bootstrap.hi)
        (g i.Bootstrap.level))
    r.bootstrap.curve;
  List.iter
    (fun f ->
      (* estimate = KS statistic, lo = p-value, hi = speed-up error. *)
      row "holdout-fold"
        (Printf.sprintf "%d:%s" f.fold f.family)
        "" (g f.ks.Kolmogorov.statistic) (g f.ks.Kolmogorov.p_value)
        (g f.speedup_err) (g f.ks.Kolmogorov.alpha))
    r.cross_validation.folds;
  (match r.calibration with
  | None -> ()
  | Some o ->
    List.iter
      (fun (name, cov) ->
        row "oracle-param-coverage" name "" (g cov) "" "" (g o.oracle_level))
      o.param_coverage;
    row "oracle-curve-coverage" o.family "" (g o.curve_coverage) "" ""
      (g o.oracle_level);
    List.iter
      (fun (name, err) -> row "oracle-recovery-error" name "" (g err) "" "" "")
      o.mean_abs_rel_error;
    row "oracle-ks-rejections" o.family ""
      (string_of_int o.ks_rejections)
      "" "" (g o.alpha);
    row "oracle-failures" o.family "" (string_of_int o.failures) "" "" "");
  Lv_telemetry.File.write path (fun oc -> Buffer.output_buffer oc b)

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>validation of %s (%d observations, seed %d):@," r.label
    r.sample_size r.seed;
  Format.fprintf ppf
    "bootstrap bands (%s, %d replicates%s, %.0f%% level):@,"
    r.bootstrap.family r.bootstrap.replicates
    (if r.bootstrap.dropped > 0 then
       Printf.sprintf ", %d dropped" r.bootstrap.dropped
     else "")
    (100. *. r.bootstrap.band_level);
  List.iter
    (fun p ->
      Format.fprintf ppf "  %-8s %a@," p.param Bootstrap.pp_interval p.interval)
    r.bootstrap.params;
  List.iter
    (fun (c : curve_band) ->
      Format.fprintf ppf "  G_%-6d %a@," c.cores Bootstrap.pp_interval
        c.interval)
    r.bootstrap.curve;
  Format.fprintf ppf
    "held-out cross-validation (%d folds): %d rejections, mean KS %.4f, \
     max speed-up error %.1f%%@,"
    (List.length r.cross_validation.folds)
    r.cross_validation.rejections r.cross_validation.mean_statistic
    (100. *. r.cross_validation.max_speedup_err);
  List.iter
    (fun f ->
      Format.fprintf ppf "  fold %d: %s, %a, speed-up err %.1f%%@," f.fold
        f.family Kolmogorov.pp_result f.ks
        (100. *. f.speedup_err))
    r.cross_validation.folds;
  (match r.calibration with
  | None -> ()
  | Some o ->
    Format.fprintf ppf
      "calibration oracle (%s, %d trials of %d runs): %d failures@,"
      o.family o.trials o.runs o.failures;
    List.iter
      (fun (name, cov) ->
        Format.fprintf ppf "  coverage %-8s %.3f (nominal %.2f)@," name cov
          o.oracle_level)
      o.param_coverage;
    if Float.is_finite o.curve_coverage then
      Format.fprintf ppf "  coverage curve    %.3f (nominal %.2f)@,"
        o.curve_coverage o.oracle_level;
    List.iter
      (fun (name, err) ->
        Format.fprintf ppf "  recovery %-8s mean |rel err| %.4f@," name err)
      o.mean_abs_rel_error;
    Format.fprintf ppf
      "  held-out KS false rejections: %d/%d (alpha %.2f)@," o.ks_rejections
      o.trials o.alpha);
  Format.fprintf ppf "@]"
