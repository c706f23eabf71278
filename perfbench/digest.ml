(* The deterministic outputs of one Engine.run call, as JSON: iteration
   dataset, fitted laws, prediction curve, comparison rows and validation
   report.  Wall-clock seconds are left out — they differ on every run.

   Two digests of the same scenario must be byte-identical whatever the
   pool size; against a checked-in reference, numbers are compared with the
   relative tolerance of tools/compare_validation.ml, because libm may
   differ in the last ulp between machines. *)

module Json = Lv_telemetry.Json
module Fit = Lv_core.Fit
module Predict = Lv_core.Predict
module Kolmogorov = Lv_stats.Kolmogorov
module Engine = Lv_engine.Engine
module Scenario = Lv_engine.Scenario

(* The fit report in the engine's artifact layout (keys and order match
   Engine's own serializer, so the traced pipeline can read and write the
   same fit artifacts). *)
let json_of_fit (r : Fit.report) =
  let name f = Json.String (Fit.candidate_name f.Fit.candidate) in
  let fitted (f : Fit.fitted) =
    let ks = f.Fit.ks in
    Json.Obj
      [
        ("candidate", name f);
        ( "params",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Float v))
               f.Fit.dist.Lv_stats.Distribution.params) );
        ( "ks",
          Json.Obj
            [
              ("statistic", Json.Float ks.Kolmogorov.statistic);
              ("p_value", Json.Float ks.Kolmogorov.p_value);
              ("n", Json.Int ks.Kolmogorov.n);
              ("accept", Json.Bool ks.Kolmogorov.accept);
              ("alpha", Json.Float ks.Kolmogorov.alpha);
            ] );
      ]
  in
  Json.Obj
    [
      ("sample_size", Json.Int r.Fit.sample_size);
      ("n_censored", Json.Int r.Fit.n_censored);
      ("censored_fraction", Json.Float r.Fit.censored_fraction);
      ("fits", Json.List (List.map fitted r.Fit.fits));
      ("accepted", Json.List (List.map name r.Fit.accepted));
      ("best", match r.Fit.best with Some f -> name f | None -> Json.Null);
    ]

let fit_of_json j =
  let fail what = failwith ("fit artifact: " ^ what) in
  let get m o = match Json.member m o with Some v -> v | None -> fail m in
  let num v = match Json.to_float v with Some f -> f | None -> fail "float" in
  let int v = match Json.to_int v with Some i -> i | None -> fail "int" in
  let str v = match Json.to_str v with Some s -> s | None -> fail "string" in
  let fitted j =
    let candidate =
      match Fit.candidate_of_string (str (get "candidate" j)) with
      | Some c -> c
      | None -> fail "candidate"
    in
    let params =
      match get "params" j with
      | Json.Obj kvs -> List.map (fun (k, v) -> (k, num v)) kvs
      | _ -> fail "params"
    in
    let ks = get "ks" j in
    {
      Fit.candidate;
      dist = Fit.instantiate candidate params;
      ks =
        {
          Kolmogorov.statistic = num (get "statistic" ks);
          p_value = num (get "p_value" ks);
          n = int (get "n" ks);
          accept = Json.to_bool (get "accept" ks) = Some true;
          alpha = num (get "alpha" ks);
        };
    }
  in
  let list = function Json.List l -> l | _ -> fail "list" in
  let fits = List.map fitted (list (get "fits" j)) in
  let by_name v =
    let n = str v in
    match List.find_opt (fun f -> Fit.candidate_name f.Fit.candidate = n) fits with
    | Some f -> f
    | None -> fail ("unknown fit " ^ n)
  in
  {
    Fit.sample_size = int (get "sample_size" j);
    n_censored = int (get "n_censored" j);
    censored_fraction = num (get "censored_fraction" j);
    fits;
    accepted = List.map by_name (list (get "accepted" j));
    best = (match get "best" j with Json.Null -> None | v -> Some (by_name v));
  }

let ints a = Json.List (Array.to_list (Array.map (fun v -> Json.Int (int_of_float v)) a))

let of_outcome (o : Engine.outcome) =
  let sc = o.Engine.scenario in
  let it = o.Engine.campaign.Lv_multiwalk.Campaign.iterations in
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("scenario", Json.String sc.Scenario.name);
      ("seed", Json.Int sc.Scenario.seed);
      ("iterations", ints it.Lv_multiwalk.Dataset.values);
      ("censored", ints it.Lv_multiwalk.Dataset.censored);
      ("fit", opt json_of_fit o.Engine.fit);
      ( "prediction",
        opt
          (fun (p : Predict.prediction) ->
            Json.Obj
              [
                ("law", Json.String (Lv_stats.Distribution.to_string p.Predict.law));
                ( "curve",
                  Json.List
                    (List.map
                       (fun (pt : Lv_core.Speedup.point) ->
                         Json.List [ Json.Int pt.cores; Json.Float pt.speedup ])
                       p.Predict.curve) );
                ("limit", Json.Float p.Predict.limit);
              ])
          o.Engine.prediction );
      ( "comparison",
        Json.List
          (List.map
             (fun (r : Predict.comparison_row) ->
               Json.List
                 [
                   Json.Int r.cores; Json.Float r.predicted; Json.Float r.measured;
                   Json.Float r.relative_error;
                 ])
             o.Engine.comparison) );
      ("validation", opt Lv_validate.Validate.to_json o.Engine.validation);
    ]

(* Tolerant structural comparison: structure, strings, integers and
   null-vs-value exactly; floats to a relative 1e-6.  Returns the path of
   the first difference. *)
let rec diff path (a : Json.t) (b : Json.t) =
  let close x y =
    x = y
    || abs_float (x -. y)
       <= 1e-6 *. Float.max 1. (Float.max (abs_float x) (abs_float y))
  in
  let here fmt = Printf.ksprintf (fun m -> Some (path ^ ": " ^ m)) fmt in
  match (a, b) with
  | Json.Null, Json.Null -> None
  | Json.Bool x, Json.Bool y -> if x = y then None else here "%b vs %b" x y
  | Json.Int x, Json.Int y -> if x = y then None else here "%d vs %d" x y
  | Json.String x, Json.String y -> if x = y then None else here "%S vs %S" x y
  | (Json.Float _ | Json.Int _), (Json.Float _ | Json.Int _) ->
    (* An integral float reads back from text as an int. *)
    let x = Option.get (Json.to_float a) and y = Option.get (Json.to_float b) in
    if close x y then None else here "%.17g vs %.17g" x y
  | Json.List xs, Json.List ys ->
    if List.length xs <> List.length ys then
      here "length %d vs %d" (List.length xs) (List.length ys)
    else
      List.find_map Fun.id
        (List.mapi (fun i (x, y) -> diff (Printf.sprintf "%s[%d]" path i) x y)
           (List.combine xs ys))
  | Json.Obj xs, Json.Obj ys ->
    if List.map fst xs <> List.map fst ys then here "keys differ"
    else
      List.find_map Fun.id
        (List.map2 (fun (k, x) (_, y) -> diff (path ^ "." ^ k) x y) xs ys)
  | _ -> here "kinds differ"
