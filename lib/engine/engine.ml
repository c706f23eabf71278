module Ctx = Lv_context.Context
module Campaign = Lv_multiwalk.Campaign
module Checkpoint = Lv_multiwalk.Checkpoint
module Dataset = Lv_multiwalk.Dataset
module Fit = Lv_core.Fit
module Predict = Lv_core.Predict
module Json = Lv_telemetry.Json
module Validate = Lv_validate.Validate

type outcome = {
  scenario : Scenario.t;
  campaign : Campaign.result;
  dataset : Dataset.t;
  fit : Fit.report option;
  prediction : Predict.prediction option;
  simulated : Lv_multiwalk.Sim.row list;
  comparison : Predict.comparison_row list;
  validation : Validate.report option;
  cache_hits : int;
  cache_misses : int;
  outputs : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Cache keys hash every effective input of a stage, so a change in    *)
(* any of them recomputes the stage.                                   *)
(* ------------------------------------------------------------------ *)

let opt_float = function Some v -> Printf.sprintf "%.17g" v | None -> "default"
let opt_int = function Some v -> string_of_int v | None -> "default"

let campaign_key (sc : Scenario.t) =
  Artifact.key ~stage:"campaign" ~seed:sc.Scenario.seed
    ~params:
      [
        ("problem", sc.Scenario.problem);
        ("size", string_of_int sc.Scenario.size);
        ("runs", string_of_int sc.Scenario.runs);
        ("walk", opt_float sc.Scenario.walk);
        ("iteration_cap", opt_int sc.Scenario.iteration_cap);
        ("timeout", opt_float sc.Scenario.timeout);
        ("max_iters", opt_int sc.Scenario.max_iters);
      ]

let metric_name = function `Iterations -> "iterations" | `Seconds -> "seconds"

let fit_key ctx (sc : Scenario.t) =
  Artifact.key ~stage:"fit" ~seed:sc.Scenario.seed
    ~params:
      [
        (* The fit consumes the campaign's output, so its key embeds the
           campaign key: any upstream change invalidates the fit too. *)
        ("campaign", campaign_key sc);
        ("metric", metric_name sc.Scenario.metric);
        ( "alpha",
          Printf.sprintf "%.17g"
            (Option.value sc.Scenario.alpha ~default:ctx.Ctx.alpha) );
        ( "candidates",
          match sc.Scenario.candidates with
          | None -> "all"
          | Some names -> String.concat "," names );
      ]

let validate_key ctx (sc : Scenario.t) (cfg : Validate.config) =
  Artifact.key ~stage:"validate" ~seed:sc.Scenario.seed
    ~params:
      [
        (* Validation consumes the fit (and through it the campaign), so
           its key embeds the fit key. *)
        ("fit", fit_key ctx sc);
        ( "cores",
          String.concat "," (List.map string_of_int sc.Scenario.cores) );
        ("replicates", string_of_int cfg.Validate.replicates);
        ("folds", string_of_int cfg.Validate.folds);
        ("level", Printf.sprintf "%.17g" cfg.Validate.level);
        ("trials", string_of_int cfg.Validate.trials);
      ]

(* ------------------------------------------------------------------ *)
(* Campaign stage: the artifact IS the checkpoint run-log.             *)
(* ------------------------------------------------------------------ *)

let result_of_observations ~label observations =
  {
    Campaign.observations;
    iterations = Dataset.of_observations ~label ~metric:`Iterations observations;
    seconds = Dataset.of_observations ~label ~metric:`Seconds observations;
    n_censored =
      List.length
        (List.filter (fun o -> not o.Lv_multiwalk.Run.solved) observations);
    n_retried = 0;
    n_restored = List.length observations;
  }

let load_campaign ~seed ~runs ~label file =
  let slots = Array.make runs None in
  let loaded =
    List.fold_left
      (fun count (e : Checkpoint.entry) ->
        if e.run < 0 || e.run >= runs then
          failwith "campaign artifact: run index out of range";
        if e.seed <> seed + e.run then
          failwith "campaign artifact: seed mismatch";
        slots.(e.run) <- Some (Checkpoint.observation_of_entry e);
        count + 1)
      0 (Checkpoint.load file)
  in
  if loaded <> runs then failwith "campaign artifact: incomplete run-log";
  let observations =
    Array.fold_right
      (fun slot acc ->
        match slot with
        | Some o -> o :: acc
        | None -> failwith "campaign artifact: missing run")
      slots []
  in
  result_of_observations ~label observations

let save_campaign ~seed (c : Campaign.result) tmp =
  Checkpoint.with_writer tmp (fun w ->
      List.iteri
        (fun i o ->
          Checkpoint.append w
            (Checkpoint.entry_of_observation ~run:i ~seed:(seed + i) o))
        c.Campaign.observations)

let run_campaign ctx store (sc : Scenario.t) =
  let params = Scenario.params sc in
  let budget =
    match (sc.Scenario.timeout, sc.Scenario.max_iters) with
    | None, None -> None
    | s, i -> Some (Lv_multiwalk.Run.budget ?max_seconds:s ?max_iterations:i ())
  in
  let make =
    match Lv_problems.Registry.find sc.Scenario.problem with
    | Some f -> fun () -> f sc.Scenario.size
    | None -> failwith ("engine: unknown problem " ^ sc.Scenario.problem)
  in
  let label = sc.Scenario.name
  and seed = sc.Scenario.seed
  and runs = sc.Scenario.runs in
  let execute ?checkpoint () =
    Campaign.run ~ctx ~params ?budget ?checkpoint ~label ~seed ~runs make
  in
  match store with
  | None -> execute ()
  | Some t ->
    let key = campaign_key sc in
    (* The in-progress campaign checkpoints straight into the artifact
       path: a crash mid-campaign leaves a partial run-log that fails the
       completeness check (a miss), and the recompute resumes from it. *)
    let file = Artifact.path t ~stage:"campaign" ~key ~ext:"jsonl" in
    Artifact.with_cache t ~stage:"campaign" ~key ~ext:"jsonl"
      ~load:(load_campaign ~seed ~runs ~label)
      ~save:(save_campaign ~seed)
      (fun () -> execute ~checkpoint:file ())

(* ------------------------------------------------------------------ *)
(* Fit stage: JSON artifact, laws rebuilt with [Fit.instantiate].      *)
(* ------------------------------------------------------------------ *)

let json_of_report (r : Fit.report) =
  let candidate f = Json.String (Fit.candidate_name f.Fit.candidate) in
  let fitted (f : Fit.fitted) =
    let ks = f.Fit.ks in
    Json.Obj
      [
        ("candidate", candidate f);
        ( "params",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Float v))
               f.Fit.dist.Lv_stats.Distribution.params) );
        ( "ks",
          Json.Obj
            [
              ("statistic", Json.Float ks.Lv_stats.Kolmogorov.statistic);
              ("p_value", Json.Float ks.Lv_stats.Kolmogorov.p_value);
              ("n", Json.Int ks.Lv_stats.Kolmogorov.n);
              ("accept", Json.Bool ks.Lv_stats.Kolmogorov.accept);
              ("alpha", Json.Float ks.Lv_stats.Kolmogorov.alpha);
            ] );
      ]
  in
  Json.Obj
    [
      ("sample_size", Json.Int r.Fit.sample_size);
      ("n_censored", Json.Int r.Fit.n_censored);
      ("censored_fraction", Json.Float r.Fit.censored_fraction);
      ("fits", Json.List (List.map fitted r.Fit.fits));
      ("accepted", Json.List (List.map candidate r.Fit.accepted));
      ( "best",
        match r.Fit.best with Some f -> candidate f | None -> Json.Null );
    ]

let report_of_json j =
  let fail what = failwith ("fit artifact: " ^ what) in
  let get m o = match Json.member m o with Some v -> v | None -> fail m in
  let to_f v = match Json.to_float v with Some f -> f | None -> fail "float" in
  let to_i v = match Json.to_int v with Some i -> i | None -> fail "int" in
  let to_b v = match Json.to_bool v with Some b -> b | None -> fail "bool" in
  let to_s v = match Json.to_str v with Some s -> s | None -> fail "string" in
  let fitted_of j =
    let candidate =
      let name = to_s (get "candidate" j) in
      match Fit.candidate_of_string name with
      | Some c -> c
      | None -> fail ("unknown candidate " ^ name)
    in
    let params =
      match get "params" j with
      | Json.Obj kvs -> List.map (fun (k, v) -> (k, to_f v)) kvs
      | _ -> fail "params"
    in
    let ksj = get "ks" j in
    {
      Fit.candidate;
      dist = Fit.instantiate candidate params;
      ks =
        {
          Lv_stats.Kolmogorov.statistic = to_f (get "statistic" ksj);
          p_value = to_f (get "p_value" ksj);
          n = to_i (get "n" ksj);
          accept = to_b (get "accept" ksj);
          alpha = to_f (get "alpha" ksj);
        };
    }
  in
  let fits =
    match get "fits" j with
    | Json.List l -> List.map fitted_of l
    | _ -> fail "fits"
  in
  let by_name v =
    let name = to_s v in
    match
      List.find_opt (fun f -> Fit.candidate_name f.Fit.candidate = name) fits
    with
    | Some f -> f
    | None -> fail ("accepted/best candidate " ^ name ^ " not among fits")
  in
  let accepted =
    match get "accepted" j with
    | Json.List l -> List.map by_name l
    | _ -> fail "accepted"
  in
  let best =
    match get "best" j with Json.Null -> None | v -> Some (by_name v)
  in
  {
    Fit.sample_size = to_i (get "sample_size" j);
    n_censored = to_i (get "n_censored" j);
    censored_fraction = to_f (get "censored_fraction" j);
    fits;
    accepted;
    best;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Names were validated by [Scenario.make]. *)
let candidates (sc : Scenario.t) =
  Option.map (List.filter_map Fit.candidate_of_string) sc.Scenario.candidates

let run_fit (ctx : Ctx.t) store (sc : Scenario.t) (ds : Dataset.t) =
  let compute () =
    Fit.fit ~ctx ?alpha:sc.Scenario.alpha ?candidates:(candidates sc)
      ~n_censored:(Dataset.n_censored ds)
      ds.Dataset.values
  in
  match store with
  | None -> compute ()
  | Some t ->
    let key = fit_key ctx sc in
    Artifact.with_cache t ~stage:"fit" ~key ~ext:"json"
      ~load:(fun file -> report_of_json (Json.of_string (read_file file)))
      ~save:(fun report tmp ->
        write_file tmp (Json.to_string (json_of_report report) ^ "\n"))
      compute

(* ------------------------------------------------------------------ *)
(* Validate stage: the whole Validate.report as one JSON artifact.     *)
(* ------------------------------------------------------------------ *)

let run_validate (ctx : Ctx.t) store (sc : Scenario.t) (cfg : Validate.config)
    (ds : Dataset.t) (report : Fit.report) =
  let compute () =
    Validate.run ~ctx ?alpha:sc.Scenario.alpha ?candidates:(candidates sc)
      ~config:cfg
      ~seed:sc.Scenario.seed ~cores:sc.Scenario.cores ~label:sc.Scenario.name
      ~report ds.Dataset.values
  in
  match store with
  | None -> compute ()
  | Some t ->
    let key = validate_key ctx sc cfg in
    Artifact.with_cache t ~stage:"validate" ~key ~ext:"json"
      ~load:(fun file -> Validate.of_json (Json.of_string (read_file file)))
      ~save:(fun r tmp ->
        write_file tmp (Json.to_string (Validate.to_json r) ^ "\n"))
      compute

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

let timed sink name f =
  let start = Lv_telemetry.Clock.now_ns () in
  let r = f () in
  Lv_telemetry.Span.record sink ~start
    ~path:(Lv_telemetry.Span.path_of "engine.stage")
    ~fields:[ ("stage", Json.String name) ]
    ();
  r

let run ?(ctx = Ctx.default) (sc : Scenario.t) =
  let telemetry = ctx.Ctx.telemetry in
  let store =
    Option.map (fun dir -> Artifact.create ~telemetry ~dir ()) ctx.Ctx.cache_dir
  in
  Lv_telemetry.Span.run telemetry ~name:"engine" ~fields:(fun () ->
      [
        ("scenario", Json.String sc.Scenario.name);
        ("problem", Json.String sc.Scenario.problem);
        ("size", Json.Int sc.Scenario.size);
        ( "stages",
          Json.String
            (String.concat ","
               (List.map Scenario.stage_name sc.Scenario.stages)) );
      ])
  @@ fun () ->
  let stage st f =
    if Scenario.has_stage sc st then
      Some (timed telemetry (Scenario.stage_name st) f)
    else None
  in
  (* Scenario validation makes every stage depend on Campaign, so the
     campaign always runs. *)
  let campaign =
    timed telemetry "campaign" (fun () -> run_campaign ctx store sc)
  in
  let dataset =
    match sc.Scenario.metric with
    | `Iterations -> campaign.Campaign.iterations
    | `Seconds -> campaign.Campaign.seconds
  in
  let fit = stage Scenario.Fit (fun () -> run_fit ctx store sc dataset) in
  let prediction =
    stage Scenario.Predict (fun () ->
        match fit with
        | Some report ->
          Predict.of_report ~ctx ~label:sc.Scenario.name
            ~cores:sc.Scenario.cores report
        | None -> invalid_arg "Engine.run: predict stage without fit stage")
  in
  let simulated =
    match
      stage Scenario.Simulate (fun () ->
          Lv_multiwalk.Sim.table dataset ~cores:sc.Scenario.cores)
    with
    | Some rows -> rows
    | None -> []
  in
  let comparison =
    match
      stage Scenario.Compare (fun () ->
          match prediction with
          | Some p ->
            let measured =
              List.map
                (fun r -> (r.Lv_multiwalk.Sim.cores, r.Lv_multiwalk.Sim.speedup))
                simulated
            in
            Predict.compare p ~measured
          | None -> invalid_arg "Engine.run: compare stage without predict stage")
    with
    | Some rows -> rows
    | None -> []
  in
  let validation =
    stage Scenario.Validate (fun () ->
        match (fit, sc.Scenario.validate) with
        | Some report, Some cfg ->
          run_validate ctx store sc cfg dataset report
        | _ -> invalid_arg "Engine.run: validate stage without fit stage")
  in
  let outputs =
    match sc.Scenario.output_dir with
    | None -> []
    | Some dir ->
      Artifact.mkdir_p dir;
      let dataset_path =
        Filename.concat dir (sc.Scenario.name ^ "-dataset.csv")
      in
      Dataset.save_csv dataset dataset_path;
      let outputs = [ ("dataset", dataset_path) ] in
      let outputs =
        match prediction with
        | Some p ->
          let prediction_path =
            Filename.concat dir (sc.Scenario.name ^ "-prediction.csv")
          in
          Predict.save_csv p prediction_path;
          outputs @ [ ("prediction", prediction_path) ]
        | None -> outputs
      in
      (match validation with
      | Some v ->
        let validation_path =
          Filename.concat dir (sc.Scenario.name ^ "-validation.csv")
        in
        Validate.save_csv v validation_path;
        outputs @ [ ("validation", validation_path) ]
      | None -> outputs)
  in
  {
    scenario = sc;
    campaign;
    dataset;
    fit;
    prediction;
    simulated;
    comparison;
    validation;
    cache_hits = (match store with Some t -> Artifact.hits t | None -> 0);
    cache_misses = (match store with Some t -> Artifact.misses t | None -> 0);
    outputs;
  }

let pp_outcome ppf o =
  let sc = o.scenario in
  Format.fprintf ppf "@[<v>%s: %s %d, %d runs (%d censored, %d restored)@,"
    sc.Scenario.name sc.Scenario.problem sc.Scenario.size sc.Scenario.runs
    o.campaign.Campaign.n_censored o.campaign.Campaign.n_restored;
  Format.fprintf ppf "%s: %a@," o.dataset.Dataset.metric Lv_stats.Summary.pp
    (Dataset.summary o.dataset);
  (match o.fit with
  | Some report -> Format.fprintf ppf "%a@," Fit.pp_report report
  | None -> ());
  (match o.prediction with
  | Some p -> Format.fprintf ppf "%a@," Predict.pp_prediction p
  | None -> ());
  (match o.simulated with
  | [] -> ()
  | rows ->
    Format.fprintf ppf "simulated (plug-in minimum):@,";
    List.iter
      (fun r -> Format.fprintf ppf "  %a@," Lv_multiwalk.Sim.pp_row r)
      rows);
  (match o.comparison with
  | [] -> ()
  | rows ->
    Format.fprintf ppf "%a@," Predict.pp_comparison rows;
    Format.fprintf ppf "max |relative error| = %.1f%%@,"
      (100. *. Predict.max_abs_relative_error rows));
  (match o.validation with
  | Some v -> Format.fprintf ppf "%a@," Validate.pp_report v
  | None -> ());
  List.iter
    (fun (kind, path) -> Format.fprintf ppf "wrote %s to %s@," kind path)
    o.outputs;
  Format.fprintf ppf "engine cache: hits=%d misses=%d@]" o.cache_hits
    o.cache_misses
