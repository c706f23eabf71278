(* The traced run: Engine.run's stages rebuilt from each layer's public
   functions, every call wrapped in a benchmark-side span, plus direct probes
   of the layers on the same inputs.  Nothing inside the program is
   instrumented; the spans are taken from outside and kept in memory until
   the run ends. *)

module Engine = Lv_engine.Engine
module Artifact = Lv_engine.Artifact
module Scenario = Lv_engine.Scenario
module Ctx = Lv_context.Context
module Pool = Lv_exec.Pool
module Campaign = Lv_multiwalk.Campaign
module Checkpoint = Lv_multiwalk.Checkpoint
module Dataset = Lv_multiwalk.Dataset
module Fit = Lv_core.Fit
module Predict = Lv_core.Predict
module Speedup = Lv_core.Speedup
module Validate = Lv_validate.Validate
module Json = Lv_telemetry.Json

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let spans = ref []
let stack = ref [ 0 ]
let next_id = ref 1

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !stack in
  stack := id :: !stack;
  let start = Util.mono () in
  Fun.protect
    ~finally:(fun () ->
      stack := List.tl !stack;
      spans := { id; parent; name; start; stop = Util.mono () } :: !spans)
    f

let duration s = s.stop -. s.start

(* Total and self seconds per span name; self time is the duration minus
   the part covered by child spans (children run on the same domain, one
   after another, so they never overlap). *)
let self_times () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        (duration s +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.
      in
      let n, total, self0 =
        Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace acc s.name (n + 1, total +. duration s, self0 +. self))
    !spans;
  Hashtbl.fold (fun name (n, total, self) l -> (name, n, total, self) :: l) acc []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let total name =
  List.fold_left
    (fun a s -> if s.name = name then a +. duration s else a)
    0. !spans

let spans_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id); ("parent", Json.Int s.parent);
             ("name", Json.String s.name); ("start", Json.Float s.start);
             ("end", Json.Float s.stop);
           ])
       !spans)

(* ------------------------------------------------------------------ *)
(* Stages: one pool each, so its counters and the allocation of its    *)
(* worker domains are exact once it has shut down.                     *)
(* ------------------------------------------------------------------ *)

let stage_names = [ "campaign"; "fit"; "predict"; "simulate"; "compare"; "validate" ]

type gc = {
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
}

let gc_by_stage =
  List.map
    (fun s ->
      (s, { minor_words = 0.; promoted_words = 0.; minor_collections = 0; major_collections = 0 }))
    stage_names

type pool_use = {
  mutable tasks : int;
  mutable steals : int;
  mutable busy : float;  (** worker-seconds inside tasks *)
  mutable tail_idle : float;  (** worker-seconds short of the busiest worker *)
}

let pool_use () = { tasks = 0; steals = 0; busy = 0.; tail_idle = 0. }
let pass_pool = pool_use ()

let add_stats (u : pool_use) (st : Pool.stats) =
  let busiest = Array.fold_left Float.max 0. st.Pool.busy_seconds in
  u.tasks <- u.tasks + st.Pool.tasks;
  u.steals <- u.steals + st.Pool.steals;
  Array.iter
    (fun b ->
      u.busy <- u.busy +. b;
      u.tail_idle <- u.tail_idle +. (busiest -. b))
    st.Pool.busy_seconds

(* Run [f pool] on a fresh pool of [nproc] domains inside a span, then
   charge its pool counters and heap statistics to [name]. *)
let with_stage_pool ~nproc name f =
  let g0 = Gc.quick_stat () in
  let pool = span "pool.create" (fun () -> Pool.create ~domains:nproc ()) in
  let r =
    Fun.protect
      ~finally:(fun () -> span "pool.shutdown" (fun () -> Pool.shutdown pool))
      (fun () -> span name (fun () -> f pool))
  in
  let g1 = Gc.quick_stat () in
  add_stats pass_pool (Pool.stats pool);
  (match List.assoc_opt name gc_by_stage with
  | Some g ->
    g.minor_words <- g.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    g.promoted_words <- g.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    g.minor_collections <- g.minor_collections + (g1.Gc.minor_collections - g0.Gc.minor_collections);
    g.major_collections <- g.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections)
  | None -> ());
  r

(* ------------------------------------------------------------------ *)
(* Artifact keys and formats, as Engine.run derives and writes them.   *)
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

let fit_key (sc : Scenario.t) =
  Artifact.key ~stage:"fit" ~seed:sc.Scenario.seed
    ~params:
      [
        ("campaign", campaign_key sc);
        ( "metric",
          match sc.Scenario.metric with
          | `Iterations -> "iterations"
          | `Seconds -> "seconds" );
        ( "alpha",
          Printf.sprintf "%.17g"
            (Option.value sc.Scenario.alpha ~default:Ctx.default.Ctx.alpha) );
        ( "candidates",
          match sc.Scenario.candidates with
          | None -> "all"
          | Some names -> String.concat "," names );
      ]

let validate_key (sc : Scenario.t) (cfg : Validate.config) =
  Artifact.key ~stage:"validate" ~seed:sc.Scenario.seed
    ~params:
      [
        ("fit", fit_key sc);
        ("cores", String.concat "," (List.map string_of_int sc.Scenario.cores));
        ("replicates", string_of_int cfg.Validate.replicates);
        ("folds", string_of_int cfg.Validate.folds);
        ("level", Printf.sprintf "%.17g" cfg.Validate.level);
        ("trials", string_of_int cfg.Validate.trials);
      ]

let campaign_of_observations ~label observations =
  {
    Campaign.observations;
    iterations = Dataset.of_observations ~label ~metric:`Iterations observations;
    seconds = Dataset.of_observations ~label ~metric:`Seconds observations;
    n_censored =
      List.length (List.filter (fun o -> not o.Lv_multiwalk.Run.solved) observations);
    n_retried = 0;
    n_restored = List.length observations;
  }

let load_campaign (sc : Scenario.t) file =
  let entries = Checkpoint.load file in
  if List.length entries <> sc.Scenario.runs then failwith "incomplete run-log";
  let entries = List.sort (fun a b -> compare a.Checkpoint.run b.Checkpoint.run) entries in
  List.iteri
    (fun i (e : Checkpoint.entry) ->
      if e.run <> i || e.seed <> sc.Scenario.seed + i then failwith "bad run-log")
    entries;
  campaign_of_observations ~label:sc.Scenario.name
    (List.map Checkpoint.observation_of_entry entries)

let save_campaign (sc : Scenario.t) (c : Campaign.result) tmp =
  Checkpoint.with_writer tmp (fun w ->
      List.iteri
        (fun i o ->
          Checkpoint.append w
            (Checkpoint.entry_of_observation ~run:i ~seed:(sc.Scenario.seed + i) o))
        c.Campaign.observations)

let load_fit file = Digest.fit_of_json (Json.of_string (Util.read_file file))

let save_fit r tmp = Util.write_file tmp (Json.to_string (Digest.json_of_fit r) ^ "\n")

let load_validation file = Validate.of_json (Json.of_string (Util.read_file file))

let save_validation r tmp =
  Util.write_file tmp (Json.to_string (Validate.to_json r) ^ "\n")

(* ------------------------------------------------------------------ *)
(* The traced pipeline                                                  *)
(* ------------------------------------------------------------------ *)

let solver_iterations = ref 0

let cached store ~stage ~key ~ext ~load ~save compute =
  match store with
  | None -> compute ()
  | Some st ->
    Artifact.with_cache st ~stage ~key ~ext
      ~load:(fun f -> span "artifact.load" (fun () -> load f))
      ~save:(fun v tmp -> span "artifact.save" (fun () -> save v tmp))
      compute

let candidates (sc : Scenario.t) =
  Option.map (List.filter_map Fit.candidate_of_string) sc.Scenario.candidates

let run_scenario ~nproc ~store (sc : Scenario.t) : Engine.outcome =
  span "engine.run" @@ fun () ->
  let store = Option.map (fun dir -> Artifact.create ~dir ()) store in
  let stage name f = with_stage_pool ~nproc name (fun pool -> f (Ctx.make ~pool ())) in
  let has = Scenario.has_stage sc in
  let campaign =
    stage "campaign" (fun ctx ->
        let file =
          Option.map
            (fun st -> Artifact.path st ~stage:"campaign" ~key:(campaign_key sc) ~ext:"jsonl")
            store
        in
        cached store ~stage:"campaign" ~key:(campaign_key sc) ~ext:"jsonl"
          ~load:(load_campaign sc) ~save:(save_campaign sc) (fun () ->
            let budget =
              match (sc.Scenario.timeout, sc.Scenario.max_iters) with
              | None, None -> None
              | s, i -> Some (Lv_multiwalk.Run.budget ?max_seconds:s ?max_iterations:i ())
            in
            let make = Option.get (Lv_problems.Registry.find sc.Scenario.problem) in
            let c =
              Campaign.run ~ctx ~params:(Scenario.params sc) ?budget ?checkpoint:file
                ~label:sc.Scenario.name ~seed:sc.Scenario.seed ~runs:sc.Scenario.runs
                (fun () -> make sc.Scenario.size)
            in
            List.iter
              (fun o -> solver_iterations := !solver_iterations + o.Lv_multiwalk.Run.iterations)
              c.Campaign.observations;
            c))
  in
  let dataset =
    match sc.Scenario.metric with
    | `Iterations -> campaign.Campaign.iterations
    | `Seconds -> campaign.Campaign.seconds
  in
  let fit =
    if not (has Scenario.Fit) then None
    else
      Some
        (stage "fit" (fun ctx ->
             cached store ~stage:"fit" ~key:(fit_key sc) ~ext:"json" ~load:load_fit
               ~save:save_fit (fun () ->
                 Fit.fit ~ctx ?alpha:sc.Scenario.alpha ?candidates:(candidates sc)
                   ~n_censored:(Dataset.n_censored dataset) dataset.Dataset.values)))
  in
  let prediction =
    match fit with
    | Some report when has Scenario.Predict ->
      Some
        (stage "predict" (fun ctx ->
             Predict.of_report ~ctx ~label:sc.Scenario.name ~cores:sc.Scenario.cores report))
    | _ -> None
  in
  let simulated =
    if has Scenario.Simulate then
      stage "simulate" (fun _ -> Lv_multiwalk.Sim.table dataset ~cores:sc.Scenario.cores)
    else []
  in
  let comparison =
    match prediction with
    | Some p when has Scenario.Compare ->
      stage "compare" (fun _ ->
          Predict.compare p
            ~measured:
              (List.map
                 (fun r -> (r.Lv_multiwalk.Sim.cores, r.Lv_multiwalk.Sim.speedup))
                 simulated))
    | _ -> []
  in
  let validation =
    match (fit, sc.Scenario.validate) with
    | Some report, Some cfg ->
      Some
        (stage "validate" (fun ctx ->
             cached store ~stage:"validate" ~key:(validate_key sc cfg) ~ext:"json"
               ~load:load_validation ~save:save_validation (fun () ->
                 Validate.run ~ctx ?alpha:sc.Scenario.alpha ?candidates:(candidates sc)
                   ~config:cfg ~seed:sc.Scenario.seed ~cores:sc.Scenario.cores
                   ~label:sc.Scenario.name ~report dataset.Dataset.values)))
    | _ -> None
  in
  {
    Engine.scenario = sc;
    campaign;
    dataset;
    fit;
    prediction;
    simulated;
    comparison;
    validation;
    cache_hits = Option.fold ~none:0 ~some:Artifact.hits store;
    cache_misses = Option.fold ~none:0 ~some:Artifact.misses store;
    outputs = [];
  }

(* ------------------------------------------------------------------ *)
(* Direct probes of single layers                                      *)
(* ------------------------------------------------------------------ *)

(* Repeat [f] until [budget] seconds and two calls have passed; return the
   mean seconds per call. *)
let per_call ~budget f =
  let t0 = Util.mono () in
  let rec go n =
    ignore (Sys.opaque_identity (f ()));
    let dt = Util.mono () -. t0 in
    if n >= 1 && dt >= budget then dt /. float_of_int (n + 1) else go (n + 1)
  in
  go 0

(* Solver cost on the main domain, one instance reused across runs as
   Campaign does. *)
let search_probe ~budget ~seed problem size =
  let packed = (Option.get (Lv_problems.Registry.find problem)) size in
  let params =
    { (Lv_problems.Defaults.params problem size) with Lv_search.Params.max_iterations = 200_000 }
  in
  let iters = ref 0 and swaps = ref 0 and resets = ref 0 in
  let w0 = Gc.minor_words () and t0 = Util.mono () in
  let rec go i =
    let r =
      Lv_search.Adaptive_search.solve_packed ~params
        ~rng:(Lv_stats.Rng.create ~seed:(seed + i)) packed
    in
    let st = r.Lv_search.Adaptive_search.stats in
    iters := !iters + st.iterations;
    swaps := !swaps + st.swaps;
    resets := !resets + st.resets;
    if i < 2 || Util.mono () -. t0 < budget then go (i + 1)
  in
  go 0;
  let dt = Util.mono () -. t0 and words = Gc.minor_words () -. w0 in
  let n = float_of_int (Int.max 1 !iters) in
  (dt *. 1e6 /. n, words /. n, float_of_int !resets *. 1000. /. n, float_of_int !swaps /. n)

let rng_probe ~draws ~seed =
  let rng = Lv_stats.Rng.create ~seed in
  let acc = ref 0 in
  let w0 = Gc.minor_words () and t0 = Util.mono () in
  for _ = 1 to draws do
    acc := !acc + Lv_stats.Rng.int rng 1000
  done;
  let dt = Util.mono () -. t0 and words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  (dt *. 1e9 /. float_of_int draws, words /. float_of_int draws)

(* A law of [family] for the speed-up probe: the fitted one, or one
   matched to the sample's moments when the estimator does not apply. *)
let law_for family (xs : float array) fitted =
  match fitted with
  | Some f -> f.Fit.dist
  | None ->
    let s = Lv_stats.Summary.of_array xs in
    let m = s.Lv_stats.Summary.mean and sd = s.Lv_stats.Summary.std in
    let x0 = 0.5 *. s.Lv_stats.Summary.min in
    let sigma2 m = log (1. +. (sd *. sd /. (m *. m))) in
    let p =
      match family with
      | Fit.Exponential -> [ ("lambda", 1. /. m) ]
      | Fit.Shifted_exponential -> [ ("x0", x0); ("lambda", 1. /. (m -. x0)) ]
      | Fit.Lognormal -> [ ("mu", log m -. (sigma2 m /. 2.)); ("sigma", sqrt (sigma2 m)) ]
      | _ ->
        let m' = m -. x0 in
        [ ("x0", x0); ("mu", log m' -. (sigma2 m' /. 2.)); ("sigma", sqrt (sigma2 m')) ]
    in
    Fit.instantiate family p
