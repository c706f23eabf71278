(* lvp — Las Vegas speed-up prediction toolbox.

   Subcommands:
     solve      run Adaptive Search once on a benchmark instance
     campaign   collect a sequential runtime dataset (CSV)
     fit        fit candidate distributions to a dataset and KS-test them
     predict    predict multi-walk speed-ups from a dataset
     run        execute a declarative scenario file end to end (cached);
                a scenario's validate key or stage adds bootstrap bands,
                held-out CV and the calibration oracle
     simulate   measure multi-walk speed-ups from a dataset (plug-in min)
     race       run a real parallel multi-walk race on OCaml domains
     paper      print the paper's published tables next to model output
     trace      re-aggregate a --trace JSONL file into a phase report

   The data-producing subcommands (campaign, race, fit, predict, run)
   accept --trace FILE.jsonl to record structured telemetry, --verbose to
   mirror events to stderr as they happen, and --quiet to silence
   progress.  Solver parameters resolve through Lv_problems.Defaults.params
   for every subcommand and for scenario files alike. *)

open Cmdliner

let problem_conv =
  let parse s =
    match Lv_problems.Registry.find s with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown problem %S (known: %s)" s
             (String.concat ", " Lv_problems.Registry.names)))
  in
  let print ppf _ = Format.fprintf ppf "<problem>" in
  Arg.conv (parse, print)

let problem_arg =
  Arg.(
    required
    & pos 0 (some problem_conv) None
    & info [] ~docv:"PROBLEM" ~doc:"Benchmark problem (all-interval, magic-square, costas-array, n-queens).")

(* Counts given on the command line: a nonsense value is a usage error
   (Cmdliner's exit 124 with a message), not an exception from deep inside
   the pipeline. *)
let int_at_least ~min ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least ~min:1 ~what:"a positive integer"

let size_arg =
  Arg.(required & pos 1 (some int) None & info [] ~docv:"SIZE" ~doc:"Instance size.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let runs_arg =
  Arg.(value & opt positive_int 200 & info [ "runs"; "r" ] ~docv:"N" ~doc:"Number of runs.")

let cores_arg =
  Arg.(
    value
    & opt (list positive_int) [ 16; 32; 64; 128; 256 ]
    & info [ "cores"; "k" ] ~docv:"K,K,..." ~doc:"Core counts to evaluate.")

let walk_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "walk" ] ~docv:"P"
        ~doc:"Probability of walking through a local minimum (default: per-problem).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output CSV file.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-run wall-time budget.  A run that exceeds it is recorded as \
           a censored observation (it keeps its iteration count so far) \
           instead of hanging the campaign.")

let max_iters_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "max-iters" ] ~docv:"N"
        ~doc:
          "Per-run iteration budget.  A campaign records a run that exhausts \
           it as a censored observation; $(b,solve) and $(b,race) report it \
           unsolved.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Durable binary run-log: every completed run is appended and \
           flushed, and on restart with the same seed/runs the logged runs \
           are restored instead of re-executed — an interrupted campaign \
           resumes to a byte-identical dataset.  A JSON Lines run-log \
           written by an earlier version cannot be resumed.")

let dataset_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"DATASET.CSV" ~doc:"Runtime dataset (one value per line or index,value).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.JSONL"
        ~doc:
          "Write a JSON Lines telemetry trace to $(docv), one event per line \
           (re-aggregate it with $(b,lvp trace)).")

let pool_domains_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "pool-domains" ] ~docv:"N"
        ~doc:
          "Number of worker domains in the execution pool (default: the \
           runtime's recommended domain count).  The independent units of \
           work — campaign runs, race walkers, bootstrap replicates, \
           held-out folds and oracle trials — multiplex over this one \
           pool; fits and predictions run serially.  Results are \
           identical for any value.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress progress output.")

let verbose_arg =
  Arg.(
    value
    & flag
    & info [ "verbose"; "v" ]
        ~doc:"Pretty-print every telemetry event to stderr as it happens.")

(* The sink a data-producing subcommand's flags ask for (JSONL file
   and/or console).  The JSONL file is flushed and closed even if [f]
   raises. *)
let with_sink ~trace ~verbose f =
  let file =
    match trace with
    | Some path -> (
      try Lv_telemetry.Sink.jsonl path
      with Sys_error msg ->
        Format.eprintf "lvp: cannot open trace file: %s@." msg;
        exit 2)
    | None -> Lv_telemetry.Sink.null
  in
  let telemetry =
    Lv_telemetry.Sink.tee file
      (if verbose then Lv_telemetry.Sink.console () else Lv_telemetry.Sink.null)
  in
  Fun.protect ~finally:(fun () -> Lv_telemetry.Sink.close telemetry)
  @@ fun () -> f telemetry

(* The sink, one pool scoped around the work and fed that sink (so a
   --trace file ends with the pool.* counter events), and the artifact
   cache. *)
let with_ctx ~trace ~verbose ~pool_domains ?cache f =
  with_sink ~trace ~verbose @@ fun telemetry ->
  Lv_exec.Pool.with_pool ~telemetry ?domains:pool_domains @@ fun pool ->
  f (Lv_context.Context.make ~pool ~telemetry ?cache_dir:cache ())

(* A subcommand whose term yields its body as a thunk.  The library
   rejects values it cannot work with by raising [Invalid_argument] (an
   instance size the problem does not have, an empty dataset, a campaign
   in which no run solved) or [Campaign.Unusable_checkpoint] (a run-log
   that is corrupt or belongs to another campaign), and an output file it
   cannot write by raising [Sys_error]; here that becomes one line on
   stderr and exit 1 rather than an uncaught-exception crash. *)
let command name ~doc term =
  let guarded body =
    try body () with
    | Invalid_argument msg | Sys_error msg
    | Lv_multiwalk.Campaign.Unusable_checkpoint msg ->
      Format.eprintf "lvp %s: %s@." name msg;
      1
  in
  Cmd.v (Cmd.info name ~doc) Term.(const guarded $ term)

(* ------------------------------------------------------------------ *)

let solve_cmd =
  let run make size seed walk max_iterations () =
    let packed = make size in
    let name = Lv_search.Csp.packed_name packed in
    let params =
      Lv_problems.Defaults.params ?walk ?max_iterations name size
    in
    let rng = Lv_stats.Rng.create ~seed in
    let t0 = Lv_telemetry.Clock.now_ns () in
    let result = Lv_search.Adaptive_search.solve_packed ~params ~rng packed in
    let dt =
      Lv_telemetry.Clock.seconds_between ~start:t0
        ~stop:(Lv_telemetry.Clock.now_ns ())
    in
    Format.printf "%s %d: %s in %.3fs, %a@."
      name size
      (if Lv_search.Adaptive_search.solved result then "solved" else "exhausted")
      dt Lv_search.Adaptive_search.pp_stats
      result.Lv_search.Adaptive_search.stats;
    if Lv_search.Adaptive_search.solved result then 0 else 1
  in
  command "solve" ~doc:"Run Adaptive Search once on a benchmark instance."
    Term.(const run $ problem_arg $ size_arg $ seed_arg $ walk_arg $ max_iters_arg)

let campaign_cmd =
  let run make size seed walk runs out timeout max_iters checkpoint
      pool_domains trace quiet verbose () =
    let packed0 = make size in
    let name = Lv_search.Csp.packed_name packed0 in
    let params = Lv_problems.Defaults.params ?walk name size in
    let label = Printf.sprintf "%s-%d" name size in
    let budget =
      Lv_multiwalk.Run.budget ?max_seconds:timeout ?max_iterations:max_iters ()
    in
    with_ctx ~trace ~verbose ~pool_domains @@ fun ctx ->
    let progress k =
      if (not quiet) && k mod 25 = 0 then
        Printf.eprintf "  %d/%d runs\r%!" k runs
    in
    let t0 = Lv_telemetry.Clock.now_ns () in
    let c =
      Lv_multiwalk.Campaign.run ~ctx ~params ~budget ?checkpoint ~label ~seed
        ~runs ~progress (fun () -> make size)
    in
    let wall =
      Lv_telemetry.Clock.seconds_between ~start:t0
        ~stop:(Lv_telemetry.Clock.now_ns ())
    in
    if not quiet then Printf.eprintf "\n%!";
    let s = Lv_multiwalk.Dataset.summary c.Lv_multiwalk.Campaign.iterations in
    Format.printf "%s: %d runs (%d censored) in %.3fs, iterations: %a@." label
      runs c.Lv_multiwalk.Campaign.n_censored wall Lv_stats.Summary.pp s;
    if c.Lv_multiwalk.Campaign.n_restored > 0 then
      Format.printf "restored %d completed runs from checkpoint@."
        c.Lv_multiwalk.Campaign.n_restored;
    let censored_fraction =
      Lv_multiwalk.Dataset.censored_fraction c.Lv_multiwalk.Campaign.iterations
    in
    if censored_fraction > Lv_core.Fit.censoring_warn_threshold then
      Format.eprintf
        "warning: %.0f%% of runs were censored at their budget — fits on \
         this dataset will truncate the upper tail; raise --timeout / \
         --max-iters@."
        (100. *. censored_fraction);
    (match out with
    | Some path ->
      Lv_multiwalk.Dataset.save_csv c.Lv_multiwalk.Campaign.iterations path;
      Format.printf "saved iteration dataset to %s@." path
    | None -> ());
    (match trace with
    | Some path -> Format.printf "telemetry trace written to %s@." path
    | None -> ());
    0
  in
  command "campaign"
    ~doc:
      "Collect sequential runtimes over many independent runs, with \
       per-run budgets and crash-safe checkpoint/resume."
    Term.(
      const run $ problem_arg $ size_arg $ seed_arg $ walk_arg $ runs_arg
      $ out_arg $ timeout_arg $ max_iters_arg $ checkpoint_arg
      $ pool_domains_arg $ trace_arg $ quiet_arg $ verbose_arg)

let fit_cmd =
  let run path alpha trace quiet verbose () =
    let ds = Lv_multiwalk.Dataset.load_csv path in
    with_sink ~trace ~verbose @@ fun telemetry ->
    let report =
      Lv_core.Fit.fit ~ctx:(Lv_context.Context.make ~telemetry ()) ~alpha
        ~n_censored:(Lv_multiwalk.Dataset.n_censored ds)
        ds.Lv_multiwalk.Dataset.values
    in
    if not quiet then Format.printf "%a@." Lv_core.Fit.pp_report report;
    0
  in
  let alpha =
    Arg.(value & opt float 0.05 & info [ "alpha" ] ~docv:"A" ~doc:"KS significance level.")
  in
  command "fit" ~doc:"Fit candidate runtime distributions and KS-test them."
    Term.(const run $ dataset_arg $ alpha $ trace_arg $ quiet_arg $ verbose_arg)

let predict_cmd =
  let run path cores out trace quiet verbose () =
    let ds = Lv_multiwalk.Dataset.load_csv path in
    with_sink ~trace ~verbose @@ fun telemetry ->
    let ctx = Lv_context.Context.make ~telemetry () in
    let report =
      Lv_core.Fit.fit ~ctx ~n_censored:(Lv_multiwalk.Dataset.n_censored ds)
        ds.Lv_multiwalk.Dataset.values
    in
    let p =
      Lv_core.Predict.of_report ~ctx ~label:ds.Lv_multiwalk.Dataset.label ~cores
        report
    in
    if not quiet then Format.printf "%a@." Lv_core.Predict.pp_prediction p;
    (match out with
    | Some file ->
      Lv_core.Predict.save_csv p file;
      Format.printf "saved prediction curve to %s@." file
    | None -> ());
    0
  in
  command "predict" ~doc:"Predict multi-walk speed-ups from a runtime dataset."
    Term.(
      const run $ dataset_arg $ cores_arg $ out_arg $ trace_arg $ quiet_arg
      $ verbose_arg)

let run_cmd =
  let run path cache out_dir pool_domains trace quiet verbose () =
    match Lv_engine.Scenario.of_file path with
    | exception Failure msg ->
      Format.eprintf "lvp run: %s@." msg;
      1
    | scenario ->
      let scenario =
        match out_dir with
        | Some dir -> { scenario with Lv_engine.Scenario.output_dir = Some dir }
        | None -> scenario
      in
      with_ctx ~trace ~verbose ~pool_domains ?cache @@ fun ctx ->
      let outcome = Lv_engine.Engine.run ~ctx scenario in
      if quiet then
        (* Keep the cache counters greppable even under --quiet: CI's
           second-run assertion keys on this line. *)
        Format.printf "engine cache: hits=%d misses=%d@."
          outcome.Lv_engine.Engine.cache_hits
          outcome.Lv_engine.Engine.cache_misses
      else Format.printf "%a@." Lv_engine.Engine.pp_outcome outcome;
      0
  in
  let scenario_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SCENARIO.CONF"
          ~doc:"Scenario file ([scenario] section of key = value lines).")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed artifact store: campaigns and fits whose \
             inputs are unchanged are restored from $(docv) instead of \
             re-executed (an interrupted campaign resumes from its run-log \
             there).")
  in
  let out_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Write the dataset and prediction CSVs, and a validated \
             scenario's validation CSV and JSON report, under $(docv), \
             overriding the scenario's own $(b,output) key.")
  in
  command "run"
    ~doc:
      "Run a declarative experiment scenario end to end (campaign, fit, \
       predict, simulate, compare and, when the scenario asks for it, \
       validate), with optional artifact caching."
    Term.(
      const run $ scenario_arg $ cache_arg $ out_dir_arg $ pool_domains_arg
      $ trace_arg $ quiet_arg $ verbose_arg)

let simulate_cmd =
  let run path cores () =
    let ds = Lv_multiwalk.Dataset.load_csv path in
    let rows = Lv_multiwalk.Sim.table ds ~cores in
    List.iter (fun r -> Format.printf "%a@." Lv_multiwalk.Sim.pp_row r) rows;
    0
  in
  command "simulate"
    ~doc:"Measure multi-walk speed-ups from a dataset (exact plug-in minimum)."
    Term.(const run $ dataset_arg $ cores_arg)

let race_cmd =
  let run make size seed walk max_iterations walkers pool_domains trace quiet
      verbose () =
    let packed0 = make size in
    let name = Lv_search.Csp.packed_name packed0 in
    let params =
      Lv_problems.Defaults.params ?walk ?max_iterations name size
    in
    with_ctx ~trace ~verbose ~pool_domains @@ fun ctx ->
    let outcome =
      Lv_multiwalk.Race.wall_clock ~ctx ~params ~seed ~walkers (fun () ->
          make size)
    in
    if not quiet then
      Format.printf "%a@." Lv_multiwalk.Race.pp_outcome outcome;
    if outcome.Lv_multiwalk.Race.solved then 0 else 1
  in
  let walkers =
    Arg.(value & opt positive_int 4 & info [ "walkers"; "w" ] ~docv:"N" ~doc:"Parallel walkers.")
  in
  command "race" ~doc:"Race parallel walkers on OCaml domains; first solution wins."
    Term.(
      const run $ problem_arg $ size_arg $ seed_arg $ walk_arg $ max_iters_arg
      $ walkers $ pool_domains_arg $ trace_arg $ quiet_arg $ verbose_arg)

let ttt_cmd =
  let run path () =
    let xs = (Lv_multiwalk.Dataset.load_csv path).Lv_multiwalk.Dataset.values in
    let report = Lv_core.Fit.fit ~candidates:Lv_core.Fit.paper_candidates xs in
    print_string (Lv_core.Ttt.report xs report.Lv_core.Fit.fits);
    0
  in
  command "ttt" ~doc:"Time-to-target plot and Q-Q straightness scores for a dataset."
    Term.(const run $ dataset_arg)

let paper_cmd =
  let run () =
    let open Lv_core in
    List.iter
      (fun b ->
        let name = Paper_data.benchmark_name b in
        let law = Paper_data.fitted_law b in
        let p =
          Predict.of_distribution ~label:name ~cores:Paper_data.cores law
        in
        let rows = Predict.compare p ~measured:(Paper_data.table5_experimental b) in
        Format.printf "%s — law %s@.%a@." name
          (Lv_stats.Distribution.to_string law)
          Predict.pp_comparison rows)
      Paper_data.benchmarks;
    0
  in
  command "paper"
    ~doc:"Replay the paper's Table 5 from its published fitted parameters."
    Term.(const run)

let trace_cmd =
  let run path json () =
    match Lv_telemetry.Report.load_jsonl path with
    | exception Lv_telemetry.Json.Parse_error msg ->
      Format.eprintf "lvp trace: %s is not a valid trace: %s@." path msg;
      1
    | events ->
      let report = Lv_telemetry.Report.of_events events in
      if json then
        print_endline (Lv_telemetry.Json.to_string (Lv_telemetry.Report.to_json report))
      else Format.printf "%a@." Lv_telemetry.Report.pp report;
      0
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE.JSONL" ~doc:"Trace file written by --trace.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of a table.")
  in
  command "trace"
    ~doc:"Re-aggregate a --trace JSONL file into a per-phase report."
    Term.(const run $ path $ json)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "lvp" ~version:"1.0.0"
      ~doc:"Prediction of parallel speed-ups for Las Vegas algorithms."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ solve_cmd; campaign_cmd; fit_cmd; predict_cmd; run_cmd;
            simulate_cmd; race_cmd; ttt_cmd; paper_cmd;
            trace_cmd ]))
