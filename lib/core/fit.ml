open Lv_stats

type candidate =
  | Exponential
  | Shifted_exponential
  | Lognormal
  | Shifted_lognormal
  | Normal
  | Weibull
  | Gamma
  | Levy

let all_candidates =
  [ Exponential; Shifted_exponential; Lognormal; Shifted_lognormal; Normal;
    Weibull; Gamma; Levy ]

let paper_candidates =
  [ Exponential; Shifted_exponential; Lognormal; Shifted_lognormal; Normal; Levy ]

let candidate_name = function
  | Exponential -> "exponential"
  | Shifted_exponential -> "shifted-exponential"
  | Lognormal -> "lognormal"
  | Shifted_lognormal -> "shifted-lognormal"
  | Normal -> "normal"
  | Weibull -> "weibull"
  | Gamma -> "gamma"
  | Levy -> "levy"

let candidate_of_string s =
  List.find_opt (fun c -> candidate_name c = s) all_candidates

let instantiate candidate params =
  let get name =
    match List.assoc_opt name params with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Fit.instantiate: missing parameter %S for %s" name
           (candidate_name candidate))
  in
  let shift () = Option.value (List.assoc_opt "x0" params) ~default:0. in
  match candidate with
  | Exponential -> Lv_stats.Exponential.create ~rate:(get "lambda")
  | Shifted_exponential ->
    Lv_stats.Exponential.shifted ~x0:(shift ()) ~rate:(get "lambda")
  | Lognormal -> Lv_stats.Lognormal.create ~mu:(get "mu") ~sigma:(get "sigma")
  | Shifted_lognormal ->
    Lv_stats.Lognormal.shifted ~x0:(shift ()) ~mu:(get "mu") ~sigma:(get "sigma")
  | Normal -> Lv_stats.Normal.create ~mu:(get "mu") ~sigma:(get "sigma")
  | Weibull -> Lv_stats.Weibull.create ~shape:(get "shape") ~scale:(get "scale")
  | Gamma -> Lv_stats.Gamma_dist.create ~shape:(get "shape") ~rate:(get "rate")
  | Levy -> Lv_stats.Levy.create ~scale:(get "c")

type fitted = {
  candidate : candidate;
  dist : Distribution.t;
  ks : Kolmogorov.result;
}

type report = {
  sample_size : int;
  n_censored : int;
  censored_fraction : float;
  fits : fitted list;
  accepted : fitted list;
  best : fitted option;
}

let empty_report =
  {
    sample_size = 0;
    n_censored = 0;
    censored_fraction = 0.;
    fits = [];
    accepted = [];
    best = None;
  }

let censoring_warn_threshold = 0.05

let censoring_warning r =
  if r.censored_fraction > censoring_warn_threshold then
    Some
      (Printf.sprintf
         "%.0f%% of the runs (%d of %d) were censored at their budget; the \
          fit sees only the solved runs, so it systematically truncates the \
          upper tail — raise the budget, or use a censoring-aware estimator \
          (e.g. Mle.exponential_censored), before trusting the predicted \
          speed-ups"
         (100. *. r.censored_fraction)
         r.n_censored
         (r.sample_size + r.n_censored))
  else None

let estimator = function
  | Exponential -> Mle.exponential
  | Shifted_exponential -> Mle.shifted_exponential ?bias_correct:None
  | Lognormal -> Mle.lognormal
  | Shifted_lognormal -> Mle.shifted_lognormal ?shift_fraction:None
  | Normal -> Mle.normal
  | Weibull -> Mle.weibull ?tol:None ?max_iter:None
  | Gamma -> Mle.gamma
  | Levy -> Mle.levy

(* [path] is the full, pre-resolved event path: candidates are fitted on
   pool workers, whose domain-local span stack is empty, so the enclosing
   "fit" span's path must be baked in by the caller rather than recovered
   from nesting. *)
let fit_one_at ?alpha ~telemetry ~path candidate xs =
  let traced = not (Lv_telemetry.Sink.is_null telemetry) in
  let start = if traced then Lv_telemetry.Clock.now_ns () else 0L in
  let emit ~outcome fields =
    if traced then
      Lv_telemetry.Span.record telemetry ~start ~path
        ~fields:
          (("candidate", Lv_telemetry.Json.String (candidate_name candidate))
          :: ("outcome", Lv_telemetry.Json.String outcome)
          :: fields)
        ()
  in
  match (estimator candidate) xs with
  | dist ->
    let estimated = if traced then Lv_telemetry.Clock.now_ns () else 0L in
    let ks = Kolmogorov.test ?alpha xs dist.Distribution.cdf in
    emit
      ~outcome:(if ks.Kolmogorov.accept then "accepted" else "rejected")
      [
        ( "estimate_s",
          Lv_telemetry.Json.Float
            (Lv_telemetry.Clock.seconds_between ~start ~stop:estimated) );
        ( "ks_s",
          Lv_telemetry.Json.Float
            (Lv_telemetry.Clock.seconds_between ~start:estimated
               ~stop:(Lv_telemetry.Clock.now_ns ())) );
        ("p_value", Lv_telemetry.Json.Float ks.Kolmogorov.p_value);
        ("ks_statistic", Lv_telemetry.Json.Float ks.Kolmogorov.statistic);
      ];
    Some { candidate; dist; ks }
  | exception Invalid_argument reason ->
    emit ~outcome:"inapplicable" [ ("reason", Lv_telemetry.Json.String reason) ];
    None

let fit_one ?(alpha = Lv_context.Context.default.alpha)
    ?(telemetry = Lv_telemetry.Sink.null) candidate xs =
  fit_one_at ~alpha ~telemetry
    ~path:(Lv_telemetry.Span.path_of "fit.candidate")
    candidate xs

(* Descending p-value under [Float.compare]'s total order: a NaN p-value
   (degenerate KS input) sorts below every real number instead of landing
   wherever the polymorphic compare's unspecified NaN ordering puts it —
   possibly at the top of [fits]. *)
let compare_by_p_value a b =
  Float.compare b.ks.Kolmogorov.p_value a.ks.Kolmogorov.p_value

let fit ?(ctx = Lv_context.Context.default) ?alpha
    ?(candidates = all_candidates) ?(n_censored = 0) xs =
  let { Lv_context.Context.pool; telemetry; _ } = ctx in
  let alpha = Option.value alpha ~default:ctx.alpha in
  if Array.length xs = 0 then invalid_arg "Fit.fit: empty sample";
  if n_censored < 0 then invalid_arg "Fit.fit: n_censored must be nonnegative";
  let accepted_cell = ref 0 in
  Lv_telemetry.Span.run telemetry ~name:"fit"
    ~fields:(fun () ->
      [
        ("sample_size", Lv_telemetry.Json.Int (Array.length xs));
        ("censored", Lv_telemetry.Json.Int n_censored);
        ("candidates", Lv_telemetry.Json.Int (List.length candidates));
        ("accepted", Lv_telemetry.Json.Int !accepted_cell);
      ])
  @@ fun () ->
  let p = match pool with Some p -> p | None -> Lv_exec.Pool.default () in
  let fits =
    Lv_exec.Pool.parallel_map p
      (fun c -> fit_one_at ~alpha ~telemetry ~path:"fit/fit.candidate" c xs)
      (Array.of_list candidates)
    |> Array.to_list
    |> List.filter_map Fun.id
  in
  (* Two candidates can estimate the same law (e.g. a shifted lognormal whose
     best shift is 0); keep the first occurrence only. *)
  let fits =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun f ->
        let key =
          (f.dist.Distribution.name, f.dist.Distribution.params)
        in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      fits
  in
  let fits = List.sort compare_by_p_value fits in
  let accepted = List.filter (fun f -> f.ks.Kolmogorov.accept) fits in
  accepted_cell := List.length accepted;
  (* Best = highest p-value among the accepted, except that a shifted
     family is preferred over its unshifted special case when both pass:
     the shift only matters in the lower tail — exactly where the
     multi-walk minimum lives — and the KS statistic barely sees it, so the
     p-value ordering between the pair is a coin toss while the speed-up
     predictions can differ wildly. *)
  let best =
    match accepted with
    | [] -> None
    | top :: _ ->
      let find c = List.find_opt (fun f -> f.candidate = c) accepted in
      let upgrade base shifted =
        if top.candidate = base then
          match find shifted with Some f -> f | None -> top
        else top
      in
      (match top.candidate with
      | Exponential -> Some (upgrade Exponential Shifted_exponential)
      | Lognormal -> Some (upgrade Lognormal Shifted_lognormal)
      | _ -> Some top)
  in
  let sample_size = Array.length xs in
  let censored_fraction =
    let total = sample_size + n_censored in
    if total = 0 then 0. else float_of_int n_censored /. float_of_int total
  in
  { sample_size; n_censored; censored_fraction; fits; accepted; best }

let pp_fitted ppf f =
  Format.fprintf ppf "%-36s %a"
    (Distribution.to_string f.dist)
    Kolmogorov.pp_result f.ks

let pp_report ppf r =
  Format.fprintf ppf "@[<v>fits on %d observations:@," r.sample_size;
  List.iter (fun f -> Format.fprintf ppf "  %a@," pp_fitted f) r.fits;
  (match r.best with
  | Some f ->
    Format.fprintf ppf "best: %s (p=%.4f)" (candidate_name f.candidate)
      f.ks.Kolmogorov.p_value
  | None -> Format.fprintf ppf "best: none accepted");
  (match censoring_warning r with
  | Some w -> Format.fprintf ppf "@,warning: %s" w
  | None -> ());
  Format.fprintf ppf "@]"
