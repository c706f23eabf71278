type prediction = {
  label : string;
  fit : Fit.report;
  law : Lv_stats.Distribution.t;
  curve : Speedup.point list;
  limit : float;
}

(* One quadrature per core count, in input order.  On a live sink each
   gets its own timed "predict.speedup" span under a fixed path, so the
   path does not depend on which domain runs the prediction. *)
let traced_curve telemetry law ~cores =
  let traced = not (Lv_telemetry.Sink.is_null telemetry) in
  List.map
    (fun n ->
      let start = if traced then Lv_telemetry.Clock.now_ns () else 0L in
      let s = Speedup.at law ~cores:n in
      if traced then
        Lv_telemetry.Span.record telemetry ~start ~path:"predict/predict.speedup"
          ~fields:
            [
              ("cores", Lv_telemetry.Json.Int n);
              ("speedup", Lv_telemetry.Json.Float s);
            ]
          ();
      { Speedup.cores = n; speedup = s })
    cores

let of_fit ?(ctx = Lv_context.Context.default) ~label ~cores
    (report : Fit.report) law =
  let { Lv_context.Context.telemetry; _ } = ctx in
  Lv_telemetry.Span.run telemetry ~name:"predict"
    ~fields:(fun () ->
      [
        ("label", Lv_telemetry.Json.String label);
        ("law", Lv_telemetry.Json.String law.Lv_stats.Distribution.name);
        ("core_counts", Lv_telemetry.Json.Int (List.length cores));
      ])
  @@ fun () ->
  {
    label;
    fit = report;
    law;
    curve = traced_curve telemetry law ~cores;
    limit = Speedup.limit law;
  }

(* The chosen law must have a curve; say which law it is, whether the KS
   test accepted it, and how to keep such laws out of the pool. *)
let chosen_law (report : Fit.report) =
  let f = Fit.chosen report in
  let law = f.Fit.dist in
  if not (Speedup.has_curve law) then
    invalid_arg
      (Printf.sprintf
         "Predict.of_report: the chosen law %s %s and has no speed-up curve \
          (it needs a nonnegative support and a finite mean); restrict the \
          fit with the scenario key candidates, e.g. candidates = \
          exponential,shifted-exponential,lognormal,shifted-lognormal"
         (Lv_stats.Distribution.to_string law)
         (if f.Fit.ks.Lv_stats.Kolmogorov.accept then "was accepted"
          else "was not accepted (no candidate passed the KS test)"));
  law

let of_report ?ctx ~label ~cores (report : Fit.report) =
  of_fit ?ctx ~label ~cores report (chosen_law report)

let of_distribution ~label ~cores law =
  of_fit ~label ~cores Fit.empty_report law

type comparison_row = {
  cores : int;
  predicted : float;
  measured : float;
  relative_error : float;
}

let compare p ~measured =
  List.filter_map
    (fun { Speedup.cores; speedup } ->
      match List.assoc_opt cores measured with
      | None -> None
      | Some m ->
        Some
          {
            cores;
            predicted = speedup;
            measured = m;
            relative_error = (speedup -. m) /. m;
          })
    p.curve

(* [nan], not 0, on the empty join: a 0 would read as "perfect prediction"
   exactly when no core counts matched at all. *)
let max_abs_relative_error = function
  | [] -> Float.nan
  | rows ->
    List.fold_left (fun acc r -> Float.max acc (abs_float r.relative_error)) 0. rows

(* Shared by the engine's outputs/artifacts and [lvp predict --output]:
   one writer, so the two paths stay byte-identical. *)
let save_csv p path =
  Lv_telemetry.File.write path @@ fun oc ->
  output_string oc "cores,speedup\n";
  List.iter
    (fun { Speedup.cores; speedup } ->
      Printf.fprintf oc "%d,%.17g\n" cores speedup)
    p.curve

(* A law fitted to runs that all took the same time carries Mle's zero-spread
   sigma.  Its [limit] describes that floor, not the data: equal runs finish
   together on any number of cores, so the ceiling is 1, as the curve
   shows. *)
let pp_limit ppf p =
  if List.assoc_opt "sigma" p.law.Lv_stats.Distribution.params
     = Some Lv_stats.Mle.zero_spread_sigma
  then Format.pp_print_string ppf "1.00 (no spread)"
  else if Float.is_finite p.limit then Format.fprintf ppf "%.2f" p.limit
  else Format.pp_print_string ppf "linear (inf)"

let pp_prediction ppf p =
  Format.fprintf ppf "@[<v>%s: law=%a limit=%a@,curve:" p.label
    Lv_stats.Distribution.pp p.law pp_limit p;
  List.iter (fun pt -> Format.fprintf ppf " %a" Speedup.pp_point pt) p.curve;
  Format.fprintf ppf "@]"

let pp_comparison ppf rows =
  Format.fprintf ppf "@[<v>%8s %12s %12s %8s@," "cores" "predicted" "measured" "err%";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d %12.2f %12.2f %7.1f%%@," r.cores r.predicted
        r.measured (100. *. r.relative_error))
    rows;
  Format.fprintf ppf "@]"
