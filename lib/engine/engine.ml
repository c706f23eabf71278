module Ctx = Lv_context.Context
module Campaign = Lv_multiwalk.Campaign
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
(* Campaign stage: the artifact IS the checkpoint run-log, and         *)
(* [Campaign.run] is its only reader and writer.                       *)
(* ------------------------------------------------------------------ *)

let run_campaign ctx store (sc : Scenario.t) =
  let params = Scenario.params sc in
  let budget =
    Lv_multiwalk.Run.budget ?max_seconds:sc.Scenario.timeout
      ?max_iterations:sc.Scenario.max_iters ()
  in
  let make =
    match Lv_problems.Registry.find sc.Scenario.problem with
    | Some f -> fun () -> f sc.Scenario.size
    | None -> failwith ("engine: unknown problem " ^ sc.Scenario.problem)
  in
  let execute ?checkpoint () =
    Campaign.run ~ctx ~params ~budget ?checkpoint ~label:sc.Scenario.name
      ~seed:sc.Scenario.seed ~runs:sc.Scenario.runs make
  in
  match store with
  | None -> execute ()
  | Some t ->
    (* The campaign checkpoints straight into the artifact path: a log
       that restores every run is a hit; a partial one (a crash
       mid-campaign) is a miss that resumes; a rejected one is a miss
       that starts over.  The log is binary; the file keeps its ".jsonl"
       name until perfbench's traced pass, which reads the store under
       that name, is replaced by [Engine.run] (ROADMAP item 1b). *)
    let file =
      Artifact.path t ~stage:"campaign" ~key:(campaign_key sc) ~ext:"jsonl"
    in
    let c =
      try execute ~checkpoint:file ()
      with Campaign.Unusable_checkpoint _ ->
        Sys.remove file;
        execute ~checkpoint:file ()
    in
    Artifact.count t ~hit:(c.Campaign.n_restored = sc.Scenario.runs);
    c

(* ------------------------------------------------------------------ *)
(* Fit and validate stages: one JSON artifact each, in the format of  *)
(* [Fit.to_json] and [Validate.to_json].                              *)
(* ------------------------------------------------------------------ *)

let cached store ~stage ~key ~to_json ~of_json compute =
  match store with
  | None -> compute ()
  | Some t ->
    Artifact.with_cache t ~stage ~key ~ext:"json"
      ~load:(fun file ->
        of_json
          (Json.of_string (In_channel.with_open_bin file In_channel.input_all)))
      ~save:(fun v tmp ->
        Lv_telemetry.File.write tmp (fun oc ->
            output_string oc (Json.to_string (to_json v) ^ "\n")))
      compute

(* Names were validated by [Scenario.make]. *)
let candidates (sc : Scenario.t) =
  Option.map (List.filter_map Fit.candidate_of_string) sc.Scenario.candidates

let run_fit (ctx : Ctx.t) store (sc : Scenario.t) (ds : Dataset.t) =
  cached store ~stage:"fit"
    ~key:(fit_key ctx sc)
    ~to_json:Fit.to_json ~of_json:Fit.of_json
    (fun () ->
      Fit.fit ~ctx ?alpha:sc.Scenario.alpha ?candidates:(candidates sc)
        ~n_censored:(Dataset.n_censored ds)
        ds.Dataset.values)

let run_validate (ctx : Ctx.t) store (sc : Scenario.t) (cfg : Validate.config)
    (ds : Dataset.t) (report : Fit.report) =
  cached store ~stage:"validate"
    ~key:(validate_key ctx sc cfg)
    ~to_json:Validate.to_json ~of_json:Validate.of_json
    (fun () ->
      Validate.run ~ctx ?alpha:sc.Scenario.alpha ?candidates:(candidates sc)
        ~config:cfg ~seed:sc.Scenario.seed ~cores:sc.Scenario.cores
        ~label:sc.Scenario.name ~report ds.Dataset.values)

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
        let path ext =
          Filename.concat dir (sc.Scenario.name ^ "-validation." ^ ext)
        in
        Validate.save_csv v (path "csv");
        Validate.save_json v (path "json");
        outputs
        @ [ ("validation", path "csv"); ("validation-json", path "json") ]
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
