(* Reproduction harness: regenerates every table and figure of
   "Prediction of Parallel Speed-ups for Las Vegas Algorithms"
   (Truchet, Richoux & Codognet, ICPP 2013).

   Three kinds of rows are printed throughout:
     paper     — the number printed in the paper (from Lv_core.Paper_data);
     model     — this library evaluated on the paper's *published fitted
                 parameters* (pure math; should match the paper's predicted
                 rows to its printed precision);
     measured  — this library's own experiments: scaled-down instances
                 (MS 10, AI 18, Costas 14 by default — the cluster-scale
                 originals are hours per run), ~400 sequential runs each,
                 multi-walk speed-ups via the exact plug-in minimum over the
                 empirical runtime distribution (equivalent to the cluster
                 race in the iteration metric; see DESIGN.md).

   Environment knobs:
     LV_BENCH_RUNS=N    sequential runs per campaign   (default 400)
     LV_BENCH_FAST=1    shortcut: 120 runs and smaller instances
     LV_BENCH_MICRO=0   skip the bechamel micro-benchmarks
     LV_BENCH_CACHE=DIR serve unchanged campaigns from the engine's
                        artifact store in DIR (an interrupted run resumes
                        its campaigns, a repeated run skips them)

   EXPERIMENTS.md in the repository root records one reference run. *)

open Lv_core

let printf = Format.printf

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v -> (match int_of_string_opt v with Some n when n > 0 -> n | _ -> default)
  | None -> default

let fast = Sys.getenv_opt "LV_BENCH_FAST" = Some "1"
let runs = getenv_int "LV_BENCH_RUNS" (if fast then 120 else 400)
let micro = Sys.getenv_opt "LV_BENCH_MICRO" <> Some "0"

let paper_cores = Paper_data.cores
let fc = Report.float_cell

(* Every top-level phase and campaign records into this sink; the run ends
   by aggregating it into BENCH_telemetry.json (phase timings, run counts,
   solve rates) so a reference run leaves a machine-readable record next to
   the human-readable EXPERIMENTS.md. *)
let telemetry = Lv_telemetry.Sink.memory ()
let phase name f = Lv_telemetry.Span.run telemetry ~name f

let write_telemetry_summary path =
  let report =
    Lv_telemetry.Report.of_events (Lv_telemetry.Sink.events telemetry)
  in
  let oc = open_out path in
  output_string oc (Lv_telemetry.Json.to_string (Lv_telemetry.Report.to_json report));
  output_char oc '\n';
  close_out oc;
  printf "@.telemetry summary written to %s (%d events)@." path
    report.Lv_telemetry.Report.events

(* ------------------------------------------------------------------ *)
(* The three scaled benchmarks                                         *)
(* ------------------------------------------------------------------ *)

type bench_problem = {
  paper : Paper_data.benchmark;
  name : string;  (* registry name *)
  size : int;
  label : string;
  iteration_cap : int;
      (* Per-run budget, ~200x the mean runtime: the very rare run that
         stagnates past it is dropped as unsolved (the paper's generalized
         Definition 1 admits non-terminating runs) instead of stalling the
         whole campaign. *)
}

let problems =
  [
    {
      paper = Paper_data.MS200;
      name = "magic-square";
      size = (if fast then 8 else 10);
      label = Printf.sprintf "MS %d" (if fast then 8 else 10);
      iteration_cap = 2_500_000;
    };
    {
      paper = Paper_data.AI700;
      name = "all-interval";
      size = (if fast then 14 else 18);
      label = Printf.sprintf "AI %d" (if fast then 14 else 18);
      iteration_cap = 5_000_000;
    };
    {
      paper = Paper_data.Costas21;
      name = "costas-array";
      size = (if fast then 12 else 14);
      label = Printf.sprintf "Costas %d" (if fast then 12 else 14);
      iteration_cap = 1_000_000;
    };
  ]

(* Campaigns go through the experiment engine: with LV_BENCH_CACHE set,
   a campaign whose inputs (problem, size, runs, seed, solver params) are
   unchanged is restored from the artifact store instead of re-executed,
   making repeated reference runs incremental. *)
let engine_ctx =
  Lv_context.Context.make ~telemetry
    ?cache_dir:(Sys.getenv_opt "LV_BENCH_CACHE") ()

let engine_campaign ~label ~problem ~size ~seed ~runs ?walk ~iteration_cap () =
  let scenario =
    Lv_engine.Scenario.make ~name:label ~runs ~seed ?walk ~iteration_cap
      ~stages:[ Lv_engine.Scenario.Campaign ] ~problem ~size ()
  in
  (Lv_engine.Engine.run ~ctx:engine_ctx scenario).Lv_engine.Engine.campaign

let campaign_of p =
  printf "  [%s] running %d sequential solves...@." p.label runs;
  let t0 = Lv_telemetry.Clock.now_ns () in
  let c =
    engine_campaign ~label:p.label ~problem:p.name ~size:p.size ~seed:20130101
      ~runs ~iteration_cap:p.iteration_cap ()
  in
  let dt =
    Lv_telemetry.Clock.seconds_between ~start:t0
      ~stop:(Lv_telemetry.Clock.now_ns ())
  in
  printf "  [%s] %d sequential runs in %.1fs (%d unsolved%s)@." p.label runs dt
    c.Lv_multiwalk.Campaign.n_censored
    (if c.Lv_multiwalk.Campaign.n_restored > 0 then
       Printf.sprintf ", %d restored from cache"
         c.Lv_multiwalk.Campaign.n_restored
     else "");
  c

(* ------------------------------------------------------------------ *)
(* Section 3 figures: the model on synthetic laws                      *)
(* ------------------------------------------------------------------ *)

let density_series d ns points =
  let header = "x" :: List.map (fun n -> Printf.sprintf "f_Z n=%d" n) ns in
  let rows =
    List.map
      (fun x ->
        fc ~decimals:1 x
        :: List.map
             (fun n ->
               let law = if n = 1 then d else Min_dist.distribution d ~n in
               Printf.sprintf "%.6f" (law.Lv_stats.Distribution.pdf x))
             ns)
      points
  in
  (header, rows)

let fig1 () =
  print_string
    (Report.section "Figure 1 — min-distributions of a gaussian (cut on R-, renormalized)");
  let d = Lv_stats.Normal.truncated_positive ~mu:300. ~sigma:150. in
  let header, rows =
    density_series d [ 1; 10; 100; 1000 ] [ 1.; 25.; 50.; 100.; 200.; 300.; 450.; 600. ]
  in
  print_string
    (Report.table ~title:"density of Z^(n), base N(300, 150) truncated" ~header ~rows);
  printf "shape check: the mass moves toward 0 and peaks as n grows.@."

let fig2_3 () =
  print_string (Report.section "Figures 2-3 — shifted exponential (x0=100, lambda=1/1000)");
  let d = Paper_data.fig2_exponential in
  let header, rows =
    density_series d [ 1; 2; 4; 8 ] [ 100.5; 200.; 400.; 800.; 1600.; 3200. ]
  in
  print_string (Report.table ~title:"Figure 2 analytic density of Z^(n)" ~header ~rows);
  let rng = Lv_stats.Rng.create ~seed:2 in
  let pool = Lv_multiwalk.Dataset.synthetic ~label:"fig2" d ~rng 20_000 in
  let emp = Lv_multiwalk.Dataset.empirical pool in
  let rows =
    List.map
      (fun n ->
        let simulated =
          let acc = ref 0. in
          for _ = 1 to 4000 do
            acc := !acc +. Lv_multiwalk.Sim.race_once emp ~rng ~cores:n
          done;
          !acc /. 4000.
        in
        [ string_of_int n; fc (Min_dist.expectation d ~n); fc simulated ])
      [ 1; 2; 4; 8 ]
  in
  print_string
    (Report.table ~title:"Figure 2 cross-check: E[Z^(n)] closed form vs simulated race"
       ~header:[ "n"; "closed form"; "simulated" ] ~rows);
  let curve =
    Speedup.exponential_curve ~x0:100. ~rate:0.001
      ~cores:[ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]
  in
  print_string (Report.speedup_series ~title:"Figure 3 predicted speed-up (limit = 11)" curve)

let fig4_5 () =
  print_string (Report.section "Figures 4-5 — lognormal (mu=5, sigma=1)");
  let d = Paper_data.fig4_lognormal in
  let header, rows =
    density_series d [ 1; 2; 4; 8 ] [ 10.; 25.; 50.; 100.; 150.; 250.; 400. ]
  in
  print_string (Report.table ~title:"Figure 4 analytic density of Z^(n)" ~header ~rows);
  let curve = Speedup.curve d ~cores:[ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  print_string
    (Report.speedup_series ~title:"Figure 5 predicted speed-up (numerical integration)" curve)

(* ------------------------------------------------------------------ *)
(* Tables 1-2: sequential statistics                                   *)
(* ------------------------------------------------------------------ *)

let stats_row label (s : Lv_stats.Summary.t) =
  [ label; fc s.Lv_stats.Summary.min; fc s.Lv_stats.Summary.mean;
    fc s.Lv_stats.Summary.median; fc s.Lv_stats.Summary.max ]

let paper_stats_row label (s : Paper_data.seq_stats) =
  [ label; fc s.Paper_data.min; fc s.Paper_data.mean; fc s.Paper_data.median;
    fc s.Paper_data.max ]

let table1_2 campaigns =
  print_string (Report.section "Tables 1-2 — sequential runtimes and iterations");
  let header = [ "problem"; "min"; "mean"; "median"; "max" ] in
  let rows =
    List.concat_map
      (fun (p, c) ->
        [ paper_stats_row
            (Paper_data.benchmark_name p.paper ^ " (paper, s)")
            (Paper_data.table1_seconds p.paper);
          stats_row
            (p.label ^ " (measured, s)")
            (Lv_multiwalk.Dataset.summary c.Lv_multiwalk.Campaign.seconds) ])
      campaigns
  in
  print_string (Report.table ~title:"Table 1 — execution times (seconds)" ~header ~rows);
  let rows =
    List.concat_map
      (fun (p, c) ->
        [ paper_stats_row
            (Paper_data.benchmark_name p.paper ^ " (paper)")
            (Paper_data.table2_iterations p.paper);
          stats_row
            (p.label ^ " (measured)")
            (Lv_multiwalk.Dataset.summary c.Lv_multiwalk.Campaign.iterations) ])
      campaigns
  in
  print_string (Report.table ~title:"Table 2 — number of iterations" ~header ~rows);
  printf
    "shape check: min << median < mean << max on every row (ratios of 1e2-1e4 \
     between min and max show the Las Vegas spread the model feeds on).@."

(* ------------------------------------------------------------------ *)
(* Tables 3-4 and Figures 6-7: measured multi-walk speed-ups           *)
(* ------------------------------------------------------------------ *)

let speedup_row ds =
  List.map
    (fun r -> fc r.Lv_multiwalk.Sim.speedup)
    (Lv_multiwalk.Sim.table ds ~cores:paper_cores)

let table3_4 campaigns =
  print_string (Report.section "Tables 3-4 — measured multi-walk speed-ups on k cores");
  let header = "problem" :: List.map (fun k -> Printf.sprintf "k=%d" k) paper_cores in
  let block paper_row_of label_suffix ds_of =
    List.concat_map
      (fun (p, c) ->
        [ (Paper_data.benchmark_name p.paper ^ " (paper)")
          :: List.map (fun (_, v) -> fc v) (paper_row_of p.paper);
          (p.label ^ label_suffix) :: speedup_row (ds_of c) ])
      campaigns
  in
  print_string
    (Report.table ~title:"Table 3 — speed-ups w.r.t. sequential time" ~header
       ~rows:
         (block Paper_data.table3_speedups_time " (measured)" (fun c ->
              c.Lv_multiwalk.Campaign.seconds)));
  print_string
    (Report.table ~title:"Table 4 — speed-ups w.r.t. sequential iterations" ~header
       ~rows:
         (block Paper_data.table4_speedups_iterations " (measured)" (fun c ->
              c.Lv_multiwalk.Campaign.iterations)));
  printf
    "shape check (paper Sect. 5.5): the CSPLib problems flatten away from \
     linear; Costas stays ~linear to 256 cores.@.";
  let dense = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  List.iter
    (fun (p, c) ->
      let rows = Lv_multiwalk.Sim.table c.Lv_multiwalk.Campaign.iterations ~cores:dense in
      let pts =
        List.map
          (fun r ->
            { Speedup.cores = r.Lv_multiwalk.Sim.cores;
              speedup = r.Lv_multiwalk.Sim.speedup })
          rows
      in
      let fig =
        match p.paper with Paper_data.Costas21 -> "Figure 7" | _ -> "Figure 6"
      in
      print_string
        (Report.speedup_series
           ~title:(Printf.sprintf "%s — measured speed-up, %s" fig p.label)
           pts))
    campaigns

(* ------------------------------------------------------------------ *)
(* Figures 8/10/12: histogram + fit; Figures 9/11/13: prediction       *)
(* ------------------------------------------------------------------ *)

let fit_and_figures campaigns =
  List.map
    (fun (p, c) ->
      let fig_hist, fig_curve =
        match p.paper with
        | Paper_data.AI700 -> ("Figure 8", "Figure 9")
        | Paper_data.MS200 -> ("Figure 10", "Figure 11")
        | Paper_data.Costas21 -> ("Figure 12", "Figure 13")
      in
      print_string
        (Report.section
           (Printf.sprintf "%s / %s — %s: fit and predicted speed-up" fig_hist
              fig_curve p.label));
      let ds = c.Lv_multiwalk.Campaign.iterations in
      let report = Fit.fit ds.Lv_multiwalk.Dataset.values in
      printf "%a@.@." Fit.pp_report report;
      (* Capped runs are right-censored observations; show how much of the
         exponential rate the naive drop-them estimator loses. *)
      let censored = Lv_multiwalk.Campaign.censored_iterations c in
      if Array.length censored > 0 then begin
        let with_censoring =
          Lv_stats.Mle.exponential_censored
            ~observed:ds.Lv_multiwalk.Dataset.values ~censored
        in
        printf
          "censoring-aware exponential fit over all %d runs (%d censored): \
           %s (naive drop-censored rate %.4g)@.@."
          (Array.length ds.Lv_multiwalk.Dataset.values + Array.length censored)
          (Array.length censored)
          (Lv_stats.Distribution.to_string with_censoring)
          (1. /. (Lv_multiwalk.Dataset.summary ds).Lv_stats.Summary.mean)
      end;
      (* The prediction restricts to the paper's candidate pool: gamma and
         Weibull can win the p-value contest yet extrapolate the lower tail
         (which the multi-walk minimum amplifies) much too optimistically. *)
      let prediction =
        Predict.of_dataset ~candidates:Fit.paper_candidates ~cores:paper_cores ds
      in
      let law = prediction.Predict.law in
      let hist =
        Lv_stats.Histogram.make ~binning:(Lv_stats.Histogram.Bins 24)
          ds.Lv_multiwalk.Dataset.values
      in
      print_string
        (Lv_stats.Histogram.render ~max_width:40 ~pdf:law.Lv_stats.Distribution.pdf hist);
      let paper_law = Paper_data.fitted_law p.paper in
      printf "@.paper's fitted law for %s: %s"
        (Paper_data.benchmark_name p.paper)
        (Lv_stats.Distribution.to_string paper_law);
      (match Paper_data.fitted_p_value p.paper with
      | Some pv -> printf " (paper KS p-value %.5f)@." pv
      | None -> printf "@.");
      let curve = Speedup.curve law ~cores:[ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
      print_string
        (Report.speedup_series
           ~title:
             (Printf.sprintf "%s — predicted speed-up from the measured fit (%s)"
                fig_curve
                (Lv_stats.Distribution.to_string law))
           curve);
      (if Float.is_finite prediction.Predict.limit then
         printf "predicted limit as n -> inf: %.2f" prediction.Predict.limit
       else printf "predicted speed-up is linear (infinite limit)");
      (match Paper_data.predicted_limit p.paper with
      | Some l ->
        printf "   [paper's limit for %s: %g]@." (Paper_data.benchmark_name p.paper) l
      | None -> printf "   [paper: linear]@.");
      (p, c, prediction))
    campaigns

(* ------------------------------------------------------------------ *)
(* Table 5: predicted vs experimental                                  *)
(* ------------------------------------------------------------------ *)

let table5 predictions =
  print_string (Report.section "Table 5 — predicted vs experimental speed-ups");
  let header = "row" :: List.map (fun k -> Printf.sprintf "k=%d" k) paper_cores in
  let rows =
    List.concat_map
      (fun (p, c, prediction) ->
        let paper_name = Paper_data.benchmark_name p.paper in
        let model_row =
          List.map
            (fun k -> fc (Speedup.at (Paper_data.fitted_law p.paper) ~cores:k))
            paper_cores
        in
        let measured =
          Lv_multiwalk.Sim.table c.Lv_multiwalk.Campaign.iterations ~cores:paper_cores
          |> List.map (fun r ->
                 (r.Lv_multiwalk.Sim.cores, r.Lv_multiwalk.Sim.speedup))
        in
        let comparison = Predict.compare prediction ~measured in
        [
          (paper_name ^ " experimental (paper)")
          :: List.map (fun (_, v) -> fc v) (Paper_data.table5_experimental p.paper);
          (paper_name ^ " predicted (paper)")
          :: List.map (fun (_, v) -> fc v) (Paper_data.table5_predicted p.paper);
          (paper_name ^ " predicted (model, paper params)") :: model_row;
          (p.label ^ " measured (this machine)")
          :: List.map (fun r -> fc r.Predict.measured) comparison;
          (p.label ^ " predicted (this machine fit)")
          :: List.map (fun r -> fc r.Predict.predicted) comparison;
          (p.label ^ " relative error")
          :: List.map
               (fun r -> Printf.sprintf "%+.1f%%" (100. *. r.Predict.relative_error))
               comparison;
        ])
      predictions
  in
  print_string (Report.table ~title:"Table 5" ~header ~rows);
  List.iter
    (fun (p, _, _) ->
      let measured_paper = Paper_data.table5_experimental p.paper in
      let model_vs_paper =
        Predict.compare
          (Predict.of_distribution ~label:"paper" ~cores:paper_cores
             (Paper_data.fitted_law p.paper))
          ~measured:measured_paper
      in
      (* The paper states its deviations relative to the *predicted* value
         ("experimental less good than predicted by a maximum of 30%"), so
         report both bases. *)
      let max_err_vs_predicted =
        List.fold_left
          (fun acc r ->
            Float.max acc
              (abs_float ((r.Predict.predicted -. r.Predict.measured)
                          /. r.Predict.predicted)))
          0. model_vs_paper
      in
      printf
        "%s: model-on-paper-params vs paper's experimental: max |err| = %.1f%% \
         of measured, %.1f%% of predicted (paper reports 10-30%% of predicted)@."
        (Paper_data.benchmark_name p.paper)
        (100. *. Predict.max_abs_relative_error model_vs_paper)
        (100. *. max_err_vs_predicted))
    predictions

(* ------------------------------------------------------------------ *)
(* Figure 14: Costas scaling to 8192 cores                             *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  print_string (Report.section "Figure 14 — Costas 21 speed-up up to 8,192 cores");
  let law = Paper_data.fitted_law Paper_data.Costas21 in
  let curve = Speedup.curve law ~cores:Paper_data.fig14_cores in
  print_string
    (Report.speedup_series
       ~title:"model prediction on the paper's exponential fit (exactly linear)" curve);
  let rng = Lv_stats.Rng.create ~seed:14 in
  let pool =
    Lv_multiwalk.Dataset.synthetic ~label:"costas21-synthetic" law ~rng 100_000
  in
  let rows =
    Lv_multiwalk.Sim.table pool ~cores:Paper_data.fig14_cores
    |> List.map (fun r ->
           [ string_of_int r.Lv_multiwalk.Sim.cores;
             fc (float_of_int r.Lv_multiwalk.Sim.cores);
             fc r.Lv_multiwalk.Sim.speedup ])
  in
  print_string
    (Report.table
       ~title:"empirical multi-walk over a 100k-run synthetic Costas 21 pool"
       ~header:[ "cores"; "ideal"; "plug-in speed-up" ]
       ~rows);
  printf
    "shape check: linear through 8,192 cores, as in the paper's JUGENE run \
     (the plug-in tapers only as k approaches the pool size).@."

(* ------------------------------------------------------------------ *)
(* Ablations (design-choice experiments beyond the paper's tables)     *)
(* ------------------------------------------------------------------ *)

(* A: prediction stability in the number of sequential observations — the
   paper's Analysis section conjectures that the required sample size is
   problem-dependent; measure it. *)
let ablation_observations campaigns =
  print_string
    (Report.section "Ablation A — how many sequential runs does the prediction need?");
  let header = [ "problem"; "runs used"; "fitted law"; "G_64"; "G_256"; "limit" ] in
  let rows =
    List.concat_map
      (fun (p, c) ->
        let values = c.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values in
        let total = Array.length values in
        List.filter_map
          (fun k ->
            if k > total then None
            else begin
              let ds =
                Lv_multiwalk.Dataset.create ~label:p.label ~metric:"iterations"
                  (Array.sub values 0 k)
              in
              let pr =
                Predict.of_dataset ~candidates:Fit.paper_candidates
                  ~cores:[ 64; 256 ] ds
              in
              let g n =
                List.find (fun pt -> pt.Speedup.cores = n) pr.Predict.curve
              in
              Some
                [ p.label; string_of_int k;
                  pr.Predict.law.Lv_stats.Distribution.name;
                  fc (g 64).Speedup.speedup;
                  fc (g 256).Speedup.speedup;
                  (if Float.is_finite pr.Predict.limit then fc pr.Predict.limit
                   else "linear") ]
            end)
          [ 25; 50; 100; 200; total ])
      campaigns
  in
  print_string (Report.table ~title:"prediction vs sample size" ~header ~rows);
  printf
    "read: when the law and G columns stop moving, the sample is big enough; \
     the paper used ~650 runs.@."

(* B: sensitivity to the fitted family — every accepted candidate's
   prediction next to the measured value. *)
let ablation_family campaigns =
  print_string
    (Report.section "Ablation B — prediction sensitivity to the fitted family");
  let header = [ "problem"; "family"; "KS p"; "G_64 predicted"; "G_64 measured" ] in
  let rows =
    List.concat_map
      (fun (p, c) ->
        let ds = c.Lv_multiwalk.Campaign.iterations in
        let measured =
          (List.hd (Lv_multiwalk.Sim.table ds ~cores:[ 64 ])).Lv_multiwalk.Sim.speedup
        in
        let report = Fit.fit ds.Lv_multiwalk.Dataset.values in
        List.filter_map
          (fun f ->
            if not f.Fit.ks.Lv_stats.Kolmogorov.accept then None
            else
              match Speedup.at f.Fit.dist ~cores:64 with
              | g ->
                Some
                  [ p.label; Fit.candidate_name f.Fit.candidate;
                    Printf.sprintf "%.3f" f.Fit.ks.Lv_stats.Kolmogorov.p_value;
                    fc g; fc measured ]
              | exception Invalid_argument _ -> None)
          report.Fit.fits)
      campaigns
  in
  print_string (Report.table ~title:"accepted families, G_64" ~header ~rows);
  printf
    "read: families that agree on the data can disagree on the extrapolated \
     minimum; the paper's pool (exponential/lognormal + shifts) tracks the \
     measured value best.@."

(* C: the shift matters — x0 = sample minimum (the paper's estimator) vs
   forcing x0 = 0, on every problem. *)
let ablation_shift campaigns =
  print_string
    (Report.section "Ablation C — shifted vs unshifted exponential fits");
  let header =
    [ "problem"; "x0"; "1/lambda"; "G_256 predicted"; "limit"; "G_256 measured" ]
  in
  let rows =
    List.concat_map
      (fun (p, c) ->
        let ds = c.Lv_multiwalk.Campaign.iterations in
        let measured =
          (List.hd (Lv_multiwalk.Sim.table ds ~cores:[ 256 ])).Lv_multiwalk.Sim.speedup
        in
        List.map
          (fun candidate ->
            match Fit.fit_one candidate ds.Lv_multiwalk.Dataset.values with
            | Some f ->
              let params = f.Fit.dist.Lv_stats.Distribution.params in
              let x0 = Option.value (List.assoc_opt "x0" params) ~default:0. in
              let lambda = List.assoc "lambda" params in
              [ p.label; fc x0; fc (1. /. lambda);
                fc (Speedup.at f.Fit.dist ~cores:256);
                (let l = Speedup.limit f.Fit.dist in
                 if Float.is_finite l then fc l else "linear");
                fc measured ]
            | None -> [ p.label; "-"; "-"; "-"; "-"; fc measured ])
          [ Fit.Shifted_exponential; Fit.Exponential ])
      campaigns
  in
  print_string (Report.table ~title:"shift ablation" ~header ~rows);
  printf
    "read: the paper's Analysis section in one table — x0 > 0 caps the \
     speed-up at 1 + 1/(x0 lambda); pretending x0 = 0 predicts a linear \
     curve instead.  The x0 <-> 1/lambda ratio decides which is honest.@."

(* D: the model is about the *algorithm's* runtime law, so changing the
   algorithm (here: the walk probability) changes the law and hence the
   prediction — verify the pipeline tracks that. *)
let ablation_solver_params () =
  print_string
    (Report.section
       "Ablation D — same instance, different solver: the law follows the algorithm");
  let size = 12 and runs_d = 200 in
  let header =
    [ "walk prob"; "mean iters"; "fitted law"; "G_64 predicted"; "G_64 measured" ]
  in
  let rows =
    List.map
      (fun walk ->
        let c =
          engine_campaign
            ~label:(Printf.sprintf "costas-%d w%.1f" size walk)
            ~problem:"costas-array" ~size ~seed:777 ~runs:runs_d ~walk
            ~iteration_cap:2_000_000 ()
        in
        let ds = c.Lv_multiwalk.Campaign.iterations in
        let pr =
          Predict.of_dataset ~candidates:Fit.paper_candidates ~cores:[ 64 ] ds
        in
        let measured =
          (List.hd (Lv_multiwalk.Sim.table ds ~cores:[ 64 ])).Lv_multiwalk.Sim.speedup
        in
        [ Printf.sprintf "%.1f" walk;
          fc (Lv_multiwalk.Dataset.summary ds).Lv_stats.Summary.mean;
          pr.Predict.law.Lv_stats.Distribution.name;
          fc (List.hd pr.Predict.curve).Speedup.speedup;
          fc measured ])
      [ 0.2; 0.5; 0.8 ]
  in
  print_string (Report.table ~title:(Printf.sprintf "Costas %d, %d runs per setting" size runs_d) ~header ~rows);
  printf
    "read: each solver variant is its own Las Vegas algorithm with its own \
     runtime law; the prediction tracks the measured multi-walk gain of each.@."

(* TTT / Q-Q diagnostics backing Figures 8/10/12. *)
let ttt_diagnostics campaigns =
  print_string
    (Report.section "Time-to-target diagnostics (the paper's refs [2,3] methodology)");
  List.iter
    (fun (p, c) ->
      let values = c.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values in
      printf "--- %s ---@." p.label;
      print_string (Ttt.render values);
      let report =
        Fit.fit ~candidates:Fit.paper_candidates values
      in
      List.iter
        (fun f ->
          printf "Q-Q straightness vs %-24s r = %.4f%s@."
            (Lv_stats.Distribution.to_string f.Fit.dist)
            (Ttt.qq_correlation values f.Fit.dist)
            (if f.Fit.ks.Lv_stats.Kolmogorov.accept then "" else "   (KS rejected)"))
        report.Fit.fits)
    campaigns

(* ------------------------------------------------------------------ *)
(* Pooled vs serial: the same fit+predict pipeline on a pool of 1 and  *)
(* a pool of recommended size                                          *)
(* ------------------------------------------------------------------ *)

let pool_vs_serial () =
  print_string
    (Report.section "pooled vs serial fit+predict (Lv_exec.Pool)");
  let rng = Lv_stats.Rng.create ~seed:4242 in
  let ds =
    Lv_multiwalk.Dataset.synthetic ~label:"pool-vs-serial"
      (Paper_data.fitted_law Paper_data.MS200) ~rng 650
  in
  let cores = [ 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let reps = 3 in
  let time domains =
    Lv_exec.Pool.with_pool ~domains @@ fun pool ->
    let t0 = Lv_telemetry.Clock.now_ns () in
    let last = ref None in
    for _ = 1 to reps do
      last :=
        Some (Predict.of_dataset ~ctx:(Lv_context.Context.make ~pool ()) ~cores ds)
    done;
    ( Lv_telemetry.Clock.seconds_between ~start:t0
        ~stop:(Lv_telemetry.Clock.now_ns ()),
      Option.get !last )
  in
  let pooled_domains = Domain.recommended_domain_count () in
  let serial_s, serial_p = time 1 in
  let pooled_s, pooled_p = time pooled_domains in
  let identical =
    List.for_all2
      (fun (a : Speedup.point) (b : Speedup.point) ->
        a.Speedup.cores = b.Speedup.cores
        && a.Speedup.speedup = b.Speedup.speedup)
      serial_p.Predict.curve pooled_p.Predict.curve
  in
  (* One span per variant so both wall-clocks land as phases in
     BENCH_telemetry.json, plus a summary event with the ratio. *)
  Lv_telemetry.Span.emit telemetry ~name:"serial" ~duration:serial_s
    ~fields:[ ("domains", Lv_telemetry.Json.Int 1) ]
    ();
  Lv_telemetry.Span.emit telemetry ~name:"pooled" ~duration:pooled_s
    ~fields:[ ("domains", Lv_telemetry.Json.Int pooled_domains) ]
    ();
  Lv_telemetry.Span.emit telemetry ~name:"summary"
    ~fields:
      [
        ("serial_s", Lv_telemetry.Json.Float serial_s);
        ("pooled_s", Lv_telemetry.Json.Float pooled_s);
        ("pooled_domains", Lv_telemetry.Json.Int pooled_domains);
        ( "speedup",
          Lv_telemetry.Json.Float
            (if pooled_s > 0. then serial_s /. pooled_s else 1.) );
        ("identical_curves", Lv_telemetry.Json.Bool identical);
      ]
    ();
  let header = [ "variant"; "domains"; "wall (s)"; "vs serial" ] in
  let rows =
    [
      [ "serial"; "1"; Printf.sprintf "%.3f" serial_s; "1.00x" ];
      [
        "pooled";
        string_of_int pooled_domains;
        Printf.sprintf "%.3f" pooled_s;
        Printf.sprintf "%.2fx"
          (if pooled_s > 0. then serial_s /. pooled_s else 1.);
      ];
    ]
  in
  print_string
    (Report.table
       ~title:
         (Printf.sprintf "%d x fit+predict, %d observations, %d core counts%s"
            reps 650 (List.length cores)
            (if identical then "" else "  [CURVES DIVERGE]"))
       ~header ~rows);
  if not identical then
    printf "WARNING: pooled and serial predictions differ!@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure kernel              *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  print_string
    (Report.section "bechamel micro-benchmarks (one kernel per table/figure)");
  let open Bechamel in
  let ds_pool =
    let rng = Lv_stats.Rng.create ~seed:99 in
    Lv_multiwalk.Dataset.synthetic ~label:"pool"
      (Lv_stats.Exponential.create ~rate:1e-5)
      ~rng 650
  in
  let emp = Lv_multiwalk.Dataset.empirical ds_pool in
  let lognormal = Paper_data.fitted_law Paper_data.MS200 in
  let exp_cdf = (Lv_stats.Exponential.create ~rate:1e-5).Lv_stats.Distribution.cdf in
  let solver_kernel pack =
    Staged.stage (fun () ->
        let params =
          { Lv_search.Params.default with Lv_search.Params.max_iterations = 200 }
        in
        let rng = Lv_stats.Rng.create ~seed:1 in
        ignore (Lv_search.Adaptive_search.solve_packed ~params ~rng (pack ())))
  in
  let tests =
    [
      Test.make ~name:"fig1-2-4:min_dist_pdf"
        (Staged.stage (fun () -> ignore (Min_dist.pdf lognormal ~n:100 50_000.)));
      Test.make ~name:"fig3:speedup_closed_form"
        (Staged.stage (fun () ->
             ignore
               (Speedup.exponential_curve ~x0:100. ~rate:0.001 ~cores:paper_cores)));
      Test.make ~name:"fig5-11:speedup_quadrature"
        (Staged.stage (fun () -> ignore (Speedup.at lognormal ~cores:64)));
      Test.make ~name:"table1-2:as_kernel_ms10"
        (solver_kernel (fun () -> Lv_problems.Magic_square.pack 10));
      Test.make ~name:"table1-2:as_kernel_ai18"
        (solver_kernel (fun () -> Lv_problems.All_interval.pack 18));
      Test.make ~name:"table1-2:as_kernel_costas14"
        (solver_kernel (fun () -> Lv_problems.Costas.pack 14));
      Test.make ~name:"table3-4:plugin_min_650x256"
        (Staged.stage (fun () ->
             ignore (Lv_stats.Empirical.expected_min_exact emp 256)));
      Test.make ~name:"fig8-10-12:ks_test_650"
        (Staged.stage (fun () ->
             ignore (Lv_stats.Kolmogorov.test ds_pool.Lv_multiwalk.Dataset.values exp_cdf)));
      Test.make ~name:"table5:predict_5_core_counts"
        (Staged.stage (fun () ->
             ignore
               (Speedup.curve (Paper_data.fitted_law Paper_data.AI700) ~cores:paper_cores)));
      Test.make ~name:"fig14:plugin_min_8192"
        (Staged.stage (fun () ->
             ignore (Lv_stats.Empirical.expected_min_exact emp 8192)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let header = [ "kernel"; "ns/run" ] in
  let rows =
    List.map
      (fun test ->
        let name = Test.Elt.name (List.hd (Test.elements test)) in
        let results = Benchmark.all cfg instances test in
        let ols =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            Toolkit.Instance.monotonic_clock results
        in
        let estimate =
          Hashtbl.fold
            (fun _ v acc ->
              match Analyze.OLS.estimates v with Some [ e ] -> e | _ -> acc)
            ols 0.
        in
        [ name; Printf.sprintf "%.0f" estimate ])
      tests
  in
  print_string (Report.table ~title:"kernel timings (OLS ns per run)" ~header ~rows)

(* ------------------------------------------------------------------ *)

let () =
  printf "Las Vegas multi-walk speed-up prediction — reproduction harness@.";
  printf "(runs per campaign: %d%s)@." runs (if fast then ", fast mode" else "");
  phase "fig1" fig1;
  phase "fig2_3" fig2_3;
  phase "fig4_5" fig4_5;
  print_string (Report.section "Sequential campaigns (the paper's Section 5.4)");
  let campaigns =
    phase "campaigns" (fun () -> List.map (fun p -> (p, campaign_of p)) problems)
  in
  phase "table1_2" (fun () -> table1_2 campaigns);
  phase "table3_4" (fun () -> table3_4 campaigns);
  let predictions = phase "fit_and_figures" (fun () -> fit_and_figures campaigns) in
  phase "table5" (fun () -> table5 predictions);
  phase "fig14" fig14;
  phase "ttt" (fun () -> ttt_diagnostics campaigns);
  phase "ablation_observations" (fun () -> ablation_observations campaigns);
  phase "ablation_family" (fun () -> ablation_family campaigns);
  phase "ablation_shift" (fun () -> ablation_shift campaigns);
  phase "ablation_solver_params" ablation_solver_params;
  phase "pool_vs_serial" pool_vs_serial;
  if micro then phase "micro_benchmarks" micro_benchmarks;
  write_telemetry_summary "BENCH_telemetry.json";
  printf "@.done.@."
