(* The repository benchmark.

   One caller runs back-to-back passes of a workload in a closed loop, on
   an explicit pool of [--nproc] domains and on a pool of one, and checks
   every output.  With [--trace 1] it instead runs the traced pipeline and
   the layer probes of {!Traced} and reports per-layer metrics.  The last
   line of standard output is the JSON result; the lines before it are for
   people.  See perfbench/README.md. *)

module Engine = Lv_engine.Engine
module Artifact = Lv_engine.Artifact
module Scenario = Lv_engine.Scenario
module Ctx = Lv_context.Context
module Pool = Lv_exec.Pool
module Fit = Lv_core.Fit
module Validate = Lv_validate.Validate
module Json = Lv_telemetry.Json
module W = Workloads

let workload = ref ""
let seed = ref W.default_seed
let seconds = ref 30.
let trace = ref 0
let nproc = ref (Domain.recommended_domain_count ())
let tiny = ref false
let refs = ref "perfbench/ref"
let write_refs = ref false
let work = ".perfbench-work"
let out = ".perfbench-out"

let specs =
  Arg.align
    [
      ("--workload", Arg.Set_string workload,
       " cold-paper | validate-queens | warm-rerun");
      ("--seed", Arg.Set_int seed, " workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measurement window (default 30)");
      ("--trace", Arg.Set_int trace, " 1 = traced run with per-layer metrics");
      ("--nproc", Arg.Set_int nproc, " domains of the parallel pool");
      ("--tiny", Arg.Set tiny, " minimal sizes (self-test)");
      ("--refs", Arg.Set_string refs, " reference directory (default perfbench/ref)");
      ("--write-refs", Arg.Set write_refs, " write this run's outputs as the reference");
    ]

(* ------------------------------------------------------------------ *)
(* Correctness accounting                                              *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      prerr_endline ("perfbench: FAIL " ^ m))
    fmt

(* Digest of each scenario's first output in the current segment: its
   first pass (or, for warm-rerun, the cold run that filled the store).
   Every later output of the same scenario must equal it byte for byte. *)
let baseline : (string, string) Hashtbl.t = Hashtbl.create 8

type call = {
  sc : Scenario.t;
  wall : float;
  outcome : (Engine.outcome, string) result;
}

let cacheable (sc : Scenario.t) =
  List.length
    (List.filter (Scenario.has_stage sc) Scenario.[ Campaign; Fit; Validate ])

let check (w : W.t) calls =
  List.iter
    (fun c ->
      incr attempted;
      let name = c.sc.Scenario.name in
      match c.outcome with
      | Error e -> fail "%s raised %s" name e
      | Ok o when w.W.store = `Warm && (o.Engine.cache_misses > 0 || o.Engine.cache_hits <> cacheable c.sc) ->
        fail "%s: warm rerun had %d hits and %d misses" name o.Engine.cache_hits
          o.Engine.cache_misses
      | Ok o -> (
        let d = Json.to_string (Digest.of_outcome o) in
        match Hashtbl.find_opt baseline name with
        | None -> Hashtbl.add baseline name d
        | Some b -> if b <> d then fail "%s: outputs differ from the serial pass" name))
    calls

let ref_file (w : W.t) = Filename.concat !refs (W.name w.W.kind ^ ".json")
let scale_name () = if !tiny then "tiny" else "full"

(* For the seed and scale a reference was written for, every scenario's
   output must match it to a relative 1e-6. *)
let check_refs (w : W.t) =
  let file = ref_file w in
  match Json.of_string (Util.read_file file) with
  | exception (Sys_error _ | Json.Parse_error _) ->
    if !seed = W.default_seed && not !tiny then fail "no readable reference %s" file
  | doc ->
    if Json.member "seed" doc = Some (Json.Int !seed)
       && Json.member "scale" doc = Some (Json.String (scale_name ()))
    then
      List.iter
        (fun (sc : Scenario.t) ->
          let name = sc.Scenario.name in
          match
            ( Option.bind (Json.member "outputs" doc) (Json.member name),
              Hashtbl.find_opt baseline name )
          with
          | Some expected, Some got -> (
            match Digest.diff "$" expected (Json.of_string got) with
            | None -> ()
            | Some where -> fail "%s differs from %s at %s" name file where)
          | None, _ -> fail "%s has no entry for %s" file name
          | _, None -> ())
        w.W.scenarios
    else if !seed = W.default_seed && not !tiny then
      fail "%s is not the reference of seed %d" file !seed

let save_refs (w : W.t) =
  Artifact.mkdir_p !refs;
  let outputs =
    List.filter_map
      (fun (sc : Scenario.t) ->
        Option.map
          (fun d -> (sc.Scenario.name, Json.of_string d))
          (Hashtbl.find_opt baseline sc.Scenario.name))
      w.W.scenarios
  in
  Util.write_file (ref_file w)
    (Json.to_string
       (Json.Obj
          [
            ("seed", Json.Int !seed); ("scale", Json.String (scale_name ()));
            ("outputs", Json.Obj outputs);
          ])
    ^ "\n")

(* ------------------------------------------------------------------ *)
(* Set-up and passes                                                    *)
(* ------------------------------------------------------------------ *)

let store_dir (w : W.t) =
  match w.W.store with
  | `None -> None
  | `Fresh -> Some (Filename.concat work "pass")
  | `Warm -> Some (Filename.concat work "warm")

type env = {
  pool : Pool.t;
  serial : Pool.t;
  cold : Engine.outcome list;  (** warm-rerun: the runs that filled the store *)
}

let shut_down env =
  Pool.shutdown env.pool;
  Pool.shutdown env.serial

(* Warm up on a pool of one, spawn the pools, and for warm-rerun fill the
   artifact store; the cold outputs become the baseline. *)
let set_up (w : W.t) =
  Pool.with_pool ~domains:1 (fun p ->
      ignore (Engine.run ~ctx:(Ctx.make ~pool:p ()) W.warm_up_scenario));
  let pool = Pool.create ~domains:!nproc () and serial = Pool.create ~domains:1 () in
  let cold =
    match (w.W.store, store_dir w) with
    | `Warm, Some dir ->
      Util.rm_rf dir;
      let ctx = Ctx.make ~pool:serial ~cache_dir:dir () in
      List.map
        (fun (sc : Scenario.t) ->
          let o = Engine.run ~ctx sc in
          Hashtbl.replace baseline sc.Scenario.name (Json.to_string (Digest.of_outcome o));
          o)
        w.W.scenarios
    | _ -> []
  in
  { pool; serial; cold }

let pass ?telemetry ~pool (w : W.t) =
  let dir = store_dir w in
  let fresh () = if w.W.store = `Fresh then Option.iter Util.rm_rf dir in
  fresh ();
  let ctx = Ctx.make ~pool ?telemetry ?cache_dir:dir () in
  let calls, wall =
    Util.time (fun () ->
        List.map
          (fun sc ->
            let outcome, wall =
              Util.time (fun () ->
                  try Ok (Engine.run ~ctx sc) with e -> Error (Printexc.to_string e))
            in
            { sc; wall; outcome })
          (W.calls w))
  in
  fresh ();
  check w calls;
  (calls, wall)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit : string; better : string; value : float }

let m name unit better value = { name; unit; better; value }

let fingerprint () =
  Json.Obj
    [
      ("workload", Json.String !workload); ("seed", Json.Int !seed);
      ("scale", Json.String (scale_name ())); ("nproc", Json.Int !nproc);
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version); ("flambda", Json.Bool Build_info.flambda);
    ]

let finish metrics =
  let fail_share = float_of_int !failed /. float_of_int (Int.max 1 !attempted) in
  List.iter
    (fun x -> Printf.printf "# %-44s %18.6f %-6s (%s is better)\n" x.name x.value x.unit x.better)
    metrics;
  Printf.printf "# %-44s %18.6f %-6s (lower is better; %d of %d failed)\n" "fail_share"
    fail_share "ratio" !failed !attempted;
  List.iter
    (fun x -> if not (Float.is_finite x.value) then fail "metric %s is not finite" x.name)
    metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0)); ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]))
                   metrics) );
          ]))

(* ------------------------------------------------------------------ *)
(* The untraced run: end-to-end metrics                                 *)
(* ------------------------------------------------------------------ *)

(* The [q]-quantile of each scenario's samples, then the geometric mean
   over scenarios: every scenario weighs the same whatever its sample
   count, and the quantile never falls between two scenarios' very
   different populations. *)
let scenario_quantile q (samples : (string, float list) Hashtbl.t) =
  let logs = Hashtbl.fold (fun _ xs acc -> log (Util.quantile q xs) :: acc) samples [] in
  exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

let untraced (make : int -> W.t) =
  let call_ms = Hashtbl.create 4 and run_ms = Hashtbl.create 4 in
  let add tbl name xs =
    Hashtbl.replace tbl name (xs @ Option.value (Hashtbl.find_opt tbl name) ~default:[])
  in
  let add_runs (o : Engine.outcome) =
    let s = o.Engine.campaign.Lv_multiwalk.Campaign.seconds in
    add run_ms o.Engine.scenario.Scenario.name
      (List.map
         (fun x -> x *. 1000.)
         (Array.to_list s.Lv_multiwalk.Dataset.values @ Array.to_list s.Lv_multiwalk.Dataset.censored))
  in
  let parallel = ref [] and serial = ref [] and setup_times = ref [] in
  let one w env ~is_serial =
    let calls, wall = pass ~pool:(if is_serial then env.serial else env.pool) w in
    if is_serial then begin
      serial := wall :: !serial;
      (* Runs are timed on the one-domain pool, where no other domain of
         the process competes for the cores. *)
      if w.W.store <> `Warm then
        List.iter (fun c -> Result.iter add_runs c.outcome) calls
    end
    else begin
      parallel := wall :: !parallel;
      List.iter (fun c -> add call_ms c.sc.Scenario.name [ c.wall *. 1000. ]) calls
    end
  in
  (* Five segments spread the set-ups over the run: each segment takes its
     own scenario seeds, sets up, runs a fifth of the window of pass pairs
     and shuts down.  Warm-rerun runs no solver in its passes; its runs are
     those of every set-up's store fill.  Pairs alternate which pool goes
     first.  A pair starts only if it should end inside its segment; every
     segment runs at least one.  The references check segment 0, so its
     baseline is kept. *)
  let segments = if !tiny then 1 else 5 in
  let share = !seconds /. float_of_int segments in
  let k = ref 0 and first = ref None in
  for segment = 0 to segments - 1 do
    let w = make segment in
    Hashtbl.reset baseline;
    let env, t = Util.time (fun () -> set_up w) in
    setup_times := t :: !setup_times;
    List.iter add_runs env.cold;
    let t0 = Util.mono () in
    let rec loop first last =
      if first || Util.mono () -. t0 +. last <= share then begin
        let t = Util.mono () in
        if !k mod 2 = 0 then (one w env ~is_serial:true; one w env ~is_serial:false)
        else (one w env ~is_serial:false; one w env ~is_serial:true);
        incr k;
        loop false (Util.mono () -. t)
      end
    in
    loop true 0.;
    shut_down env;
    if segment = 0 then first := Some (Hashtbl.copy baseline)
  done;
  Hashtbl.reset baseline;
  Option.iter (Hashtbl.iter (Hashtbl.add baseline)) !first;
  let show name xs =
    Printf.printf "# %s passes (s):%s\n" name
      (String.concat "" (List.rev_map (Printf.sprintf " %.3f") xs))
  in
  show "parallel" !parallel;
  show "serial" !serial;
  [
    m "setup_s" "s" "lower" (Util.median !setup_times);
    m "pass_s" "s" "lower" (Util.median !parallel);
    m "serial_pass_s" "s" "lower" (Util.median !serial);
    m "run_p50_ms" "ms" "lower" (scenario_quantile 0.5 run_ms);
    m "run_p90_ms" "ms" "lower" (scenario_quantile 0.9 run_ms);
    m "rerun_p50_ms" "ms" "lower" (scenario_quantile 0.5 call_ms);
    m "rerun_p90_ms" "ms" "lower" (scenario_quantile 0.9 call_ms);
    m "peak_rss_mb" "MB" "lower" (Util.peak_rss_mb ());
  ]

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics                                    *)
(* ------------------------------------------------------------------ *)

let probe_config = { Validate.replicates = 20; folds = 2; level = 0.9; trials = 2 }

let search_instances =
  [ ("costas-array", 12); ("all-interval", 14); ("magic-square", 8); ("n-queens", 30);
    ("costas-array", 10) ]

let chosen_fit (r : Fit.report) =
  match r.Fit.best with Some f -> f | None -> List.hd r.Fit.fits

let traced (w : W.t) =
  let budget = if !tiny then 0.005 else 0.25 in
  let env = set_up w in
  let _, serial_wall = pass ~pool:env.serial w in
  let _, parallel_wall = pass ~pool:env.pool w in
  let _, memory_wall = pass ~telemetry:(Lv_telemetry.Sink.memory ()) ~pool:env.pool w in
  shut_down env;
  (* The traced pass. *)
  let dir = store_dir w in
  if w.W.store = `Fresh then Option.iter Util.rm_rf dir;
  let calls, traced_wall =
    Util.time (fun () ->
        Traced.span "pass" (fun () ->
            List.map
              (fun sc ->
                let outcome =
                  try Ok (Traced.run_scenario ~nproc:!nproc ~store:dir sc)
                  with e -> Error (Printexc.to_string e)
                in
                { sc; wall = 0.; outcome })
              (W.calls w)))
  in
  check w calls;
  let outcomes = List.filter_map (fun c -> Result.to_option c.outcome) calls in
  let first_of (sc : Scenario.t) =
    List.find (fun o -> o.Engine.scenario.Scenario.name = sc.Scenario.name) outcomes
  in
  let first = first_of (List.hd w.W.scenarios) in
  let xs = first.Engine.dataset.Lv_multiwalk.Dataset.values in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  (* Solver and RNG. *)
  let search =
    List.concat_map
      (fun (problem, size) ->
        let seed =
          match
            List.find_opt
              (fun (sc : Scenario.t) -> sc.Scenario.problem = problem && sc.Scenario.size = size)
              w.W.scenarios
          with
          | Some sc -> sc.Scenario.seed
          | None -> (!seed * 1000) + 900 + size
        in
        let us, words, resets, accept = Traced.search_probe ~budget ~seed problem size in
        let p = Printf.sprintf "search.%s-%d." problem size in
        [
          m (p ^ "us_per_iter") "us" "lower" us;
          m (p ^ "minor_words_per_iter") "words" "lower" words;
          m (p ^ "resets_per_kiter") "count" "lower" resets;
          m (p ^ "accept_ratio") "ratio" "higher" accept;
        ])
      search_instances
  in
  let ns, words = Traced.rng_probe ~draws:(if !tiny then 10_000 else 2_000_000) ~seed:!seed in
  (* Fit and speed-up, direct, on the first scenario's dataset. *)
  let fits =
    List.map
      (fun c ->
        let per = Traced.per_call ~budget (fun () -> Fit.fit_one c xs) in
        (c, per, Fit.fit_one c xs))
      Fit.paper_candidates
  in
  let speedups =
    List.map
      (fun c ->
        let _, _, fitted = List.find (fun (c', _, _) -> c' = c) fits in
        let law = Traced.law_for c xs fitted in
        let cores = first.Engine.scenario.Scenario.cores in
        ( c,
          Traced.per_call ~budget (fun () ->
              List.map (fun n -> Lv_core.Speedup.at law ~cores:n) cores)
          /. float_of_int (List.length cores) ))
      (List.filter_map Fit.candidate_of_string W.candidates)
  in
  (* Validation sub-steps, direct, on the first validated scenario's inputs
     (or the first scenario under a small probe configuration). *)
  let vsc, vcfg =
    match List.find_opt (fun (sc : Scenario.t) -> sc.Scenario.validate <> None) w.W.scenarios with
    | Some sc -> (sc, Option.get sc.Scenario.validate)
    | None -> (List.hd w.W.scenarios, probe_config)
  in
  let vo = first_of vsc in
  let vxs = vo.Engine.dataset.Lv_multiwalk.Dataset.values and report = Option.get vo.Engine.fit in
  let alpha = Option.value vsc.Scenario.alpha ~default:Ctx.default.Ctx.alpha in
  let cores = vsc.Scenario.cores and vseed = vsc.Scenario.seed in
  let use = Traced.pool_use () in
  let vpool = Pool.create ~domains:!nproc () in
  let bootstrap, boot_s =
    Util.time (fun () ->
        Validate.bootstrap_bands ~pool:vpool ~replicates:vcfg.Validate.replicates
          ~level:vcfg.Validate.level ~seed:vseed ~cores ~report vxs)
  in
  let holdout, hold_s =
    Util.time (fun () ->
        Validate.holdout ~pool:vpool ~alpha ?candidates:(Traced.candidates vsc)
          ~folds:vcfg.Validate.folds ~seed:vseed ~cores vxs)
  in
  let oracle, oracle_s =
    let base = chosen_fit report in
    Util.time (fun () ->
        Validate.oracle ~pool:vpool ~alpha ~replicates:vcfg.Validate.replicates
          ~level:vcfg.Validate.level ~trials:(Int.max 1 vcfg.Validate.trials) ~seed:vseed
          ~cores ~runs:(Array.length vxs) ~candidate:base.Fit.candidate ~truth:base.Fit.dist ())
  in
  Pool.shutdown vpool;
  Traced.add_stats use (Pool.stats vpool);
  let probe_report =
    {
      Validate.label = vsc.Scenario.name; seed = vseed; alpha; cores; config = vcfg;
      sample_size = Array.length vxs; bootstrap; cross_validation = holdout;
      calibration = Some oracle;
    }
  in
  (* Artifacts: write every stage artifact of each scenario to a fresh
     store, then read them back, through the artifact layer. *)
  let write_s = ref 0. and written = ref 0 and read = ref 0 in
  let load_s = List.map (fun s -> (s, ref 0.)) [ "campaign"; "fit"; "validate" ] in
  let probe_dir = Filename.concat work "probe" in
  Util.rm_rf probe_dir;
  let st = Artifact.create ~dir:probe_dir () in
  let through stage ~key ~ext ~load ~save v =
    ignore
      (Artifact.with_cache st ~stage ~key ~ext
         ~load:(fun f ->
           read := !read + Util.file_size f;
           let r, dt = Util.time (fun () -> load f) in
           let cell = List.assoc stage load_s in
           cell := !cell +. dt;
           r)
         ~save:(fun v tmp ->
           let (), dt = Util.time (fun () -> save v tmp) in
           write_s := !write_s +. dt;
           written := !written + Util.file_size tmp)
         (fun () -> v))
  in
  for _ = 1 to 2 do
    List.iter
      (fun (sc : Scenario.t) ->
        let o = first_of sc in
        through "campaign" ~key:(Traced.campaign_key sc) ~ext:"jsonl"
          ~load:(Traced.load_campaign sc) ~save:(Traced.save_campaign sc) o.Engine.campaign;
        Option.iter
          (through "fit" ~key:(Traced.fit_key sc) ~ext:"json" ~load:Traced.load_fit
             ~save:Traced.save_fit)
          o.Engine.fit;
        let cfg = Option.value sc.Scenario.validate ~default:probe_config in
        through "validate" ~key:(Traced.validate_key sc cfg) ~ext:"json"
          ~load:Traced.load_validation ~save:Traced.save_validation
          (Option.value o.Engine.validation ~default:probe_report))
      w.W.scenarios
  done;
  Util.rm_rf probe_dir;
  let per_scenario = float_of_int (List.length w.W.scenarios) in
  (* Premises of the workload. *)
  let share name = Traced.total name /. traced_wall in
  let premise what ok =
    Printf.printf "# premise %-52s %s\n" what (if ok then "holds" else "FAILS");
    (* Minimal sizes do not have the workloads' shape. *)
    if not (ok || !tiny) then fail "premise: %s" what
  in
  (match w.W.kind with
  | W.Cold_paper ->
    premise (Printf.sprintf "campaign share %.3f >= 0.95" (share "campaign")) (share "campaign" >= 0.95)
  | W.Validate_queens ->
    premise (Printf.sprintf "validate share %.3f >= 0.90" (share "validate")) (share "validate" >= 0.90)
  | W.Warm_rerun ->
    premise
      (Printf.sprintf "solver iterations %d = 0" !Traced.solver_iterations)
      (!Traced.solver_iterations = 0));
  let count name = List.length (List.filter (fun s -> s.Traced.name = name) !Traced.spans) in
  let ms_per name = 1000. *. Traced.total name /. float_of_int (Int.max 1 (count name)) in
  let f = float_of_int in
  let nd = f !nproc in
  let metrics =
    search
    @ [
        m "rng.ns_per_draw" "ns" "lower" ns;
        m "rng.minor_words_per_draw" "words" "lower" words;
        m "campaign.s" "s" "lower" (Traced.total "campaign");
        m "campaign.share" "ratio" "lower" (share "campaign");
        m "campaign.censored" "count" "lower"
          (f (sum (fun o -> o.Engine.campaign.Lv_multiwalk.Campaign.n_censored)));
        m "pool.busy_share" "ratio" "higher" (Traced.pass_pool.busy /. (nd *. traced_wall));
        m "pool.tail_idle_s" "s" "lower" Traced.pass_pool.tail_idle;
        m "pool.tasks" "count" "lower" (f Traced.pass_pool.tasks);
        m "pool.steals" "count" "lower" (f Traced.pass_pool.steals);
        m "pool.scaling_eff" "ratio" "higher" (serial_wall /. (nd *. parallel_wall));
        m "fit.s" "s" "lower" (Traced.total "fit");
        m "fit.accepted" "count" "higher"
          (f (sum (fun o -> match o.Engine.fit with Some r -> List.length r.Fit.accepted | None -> 0)));
      ]
    @ List.map
        (fun (c, per, _) ->
          m (Printf.sprintf "fit.%s.us_per_obs" (Fit.candidate_name c)) "us" "lower"
            (per *. 1e6 /. f (Array.length xs)))
        fits
    @ List.map
        (fun (c, per) ->
          m (Printf.sprintf "speedup.%s.us_per_core" (Fit.candidate_name c)) "us" "lower" (per *. 1e6))
        speedups
    @ [
        m "predict.ms" "ms" "lower" (ms_per "predict");
        m "sim.ms" "ms" "lower" (ms_per "simulate");
        m "validate.bootstrap_s" "s" "lower" boot_s;
        m "validate.holdout_s" "s" "lower" hold_s;
        m "validate.oracle_s" "s" "lower" oracle_s;
        m "validate.ms_per_replicate" "ms" "lower" (boot_s *. 1000. /. f vcfg.Validate.replicates);
        m "validate.ms_per_trial" "ms" "lower"
          (oracle_s *. 1000. /. f (Int.max 1 vcfg.Validate.trials));
        m "validate.dropped" "count" "lower" (f bootstrap.Validate.dropped);
        m "validate.busy_share" "ratio" "higher" (use.Traced.busy /. (nd *. (boot_s +. hold_s +. oracle_s)));
        m "artifact.write_ms" "ms" "lower" (!write_s *. 1000. /. per_scenario);
        m "artifact.bytes_written" "bytes" "lower" (f !written /. per_scenario);
      ]
    @ List.map
        (fun (s, cell) -> m ("artifact.load_ms." ^ s) "ms" "lower" (!cell *. 1000. /. per_scenario))
        load_s
    @ [
        m "artifact.bytes_read" "bytes" "lower" (f !read /. per_scenario);
        m "artifact.hits" "count" "higher" (f (sum (fun o -> o.Engine.cache_hits)));
        m "artifact.misses" "count" "lower" (f (sum (fun o -> o.Engine.cache_misses)));
      ]
    @ List.concat_map
        (fun (s, (g : Traced.gc)) ->
          let p = "gc." ^ s ^ "." in
          [
            m (p ^ "minor_words") "words" "lower" g.minor_words;
            m (p ^ "minor_collections") "count" "lower" (f g.minor_collections);
            m (p ^ "major_collections") "count" "lower" (f g.major_collections);
            m (p ^ "promoted_words") "words" "lower" g.promoted_words;
          ])
        Traced.gc_by_stage
    @ [
        m "telemetry.trace_overhead_share" "ratio" "lower" ((traced_wall /. parallel_wall) -. 1.);
        m "telemetry.sink_overhead_share" "ratio" "lower" ((memory_wall /. parallel_wall) -. 1.);
      ]
  in
  (* Self times, printed and written with the spans. *)
  let selfs = Traced.self_times () in
  List.iter
    (fun (name, n, total, self) ->
      Printf.printf "# span %-20s %6d calls %12.6f s total %12.6f s self\n" name n total self)
    selfs;
  Artifact.mkdir_p out;
  Util.write_file
    (Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" !workload !seed))
    (Json.to_string
       (Json.Obj
          [
            ("fingerprint", fingerprint ());
            ( "self_times",
              Json.List
                (List.map
                   (fun (name, n, total, self) ->
                     Json.Obj
                       [
                         ("name", Json.String name); ("calls", Json.Int n);
                         ("total_s", Json.Float total); ("self_s", Json.Float self);
                       ])
                   selfs) );
            ("spans", Traced.spans_json ());
          ])
    ^ "\n");
  metrics

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let kind =
    match List.assoc_opt !workload W.kinds with
    | Some k -> k
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let scale = if !tiny then W.Tiny else W.Full in
  let w = W.make ~scale ~seed:!seed kind in
  (* The first spawned domain starts a backup thread for the main domain
     that lives until exit; start it before counting threads. *)
  Domain.join (Domain.spawn ignore);
  let threads0 = Util.threads () in
  print_endline ("# fingerprint " ^ Json.to_string (fingerprint ()));
  Util.rm_rf work;
  let metrics =
    if !trace = 1 then traced w
    else untraced (fun segment -> W.make ~scale ~seed:!seed ~segment kind)
  in
  if !write_refs then save_refs w else check_refs w;
  Util.rm_rf work;
  (* Every pool has shut down; a domain still alive means some layer fell
     back to the process-wide default pool. *)
  let rec settle tries =
    (* A joined domain's backup thread may take a moment to exit. *)
    if Util.threads () > threads0 && tries > 0 then (Unix.sleepf 0.02; settle (tries - 1))
  in
  settle 100;
  if Util.threads () > threads0 then
    fail "%d threads alive at the end, %d at the start" (Util.threads ()) threads0;
  finish metrics
