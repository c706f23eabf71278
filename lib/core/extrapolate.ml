type observation = { size : int; dataset : Lv_multiwalk.Dataset.t }

type family_choice = {
  candidate : Fit.candidate;
  fits : (int * Fit.fitted) list;
}

let stable_family ?(candidates = Fit.paper_candidates) obs =
  if List.length obs < 2 then
    invalid_arg "Extrapolate.stable_family: need at least two sizes";
  let obs = List.sort (fun a b -> compare a.size b.size) obs in
  (* For each candidate, fit every size; keep candidates accepted
     everywhere, scored by their worst p-value. *)
  let score candidate =
    let fits =
      List.map
        (fun o ->
          (o.size, Fit.fit_one candidate o.dataset.Lv_multiwalk.Dataset.values))
        obs
    in
    if
      List.for_all
        (function _, Some f -> f.Fit.ks.Lv_stats.Kolmogorov.accept | _, None -> false)
        fits
    then begin
      let fits = List.map (fun (s, f) -> (s, Option.get f)) fits in
      let worst_p =
        List.fold_left
          (fun acc (_, f) -> Float.min acc f.Fit.ks.Lv_stats.Kolmogorov.p_value)
          1. fits
      in
      Some (worst_p, { candidate; fits })
    end
    else None
  in
  candidates
  |> List.filter_map score
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> function
  | (_, best) :: _ -> Some best
  | [] -> None

type power_law = { coefficient : float; exponent : float }

let fit_power_law pairs =
  if List.length pairs < 2 then
    invalid_arg "Extrapolate.fit_power_law: need at least two points";
  List.iter
    (fun (x, v) ->
      if x <= 0. || v <= 0. then
        invalid_arg "Extrapolate.fit_power_law: values must be positive")
    pairs;
  (* OLS on (log x, log v). *)
  let n = float_of_int (List.length pairs) in
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
  List.iter
    (fun (x, v) ->
      let lx = log x and lv = log v in
      sx := !sx +. lx;
      sy := !sy +. lv;
      sxx := !sxx +. (lx *. lx);
      sxy := !sxy +. (lx *. lv))
    pairs;
  let denom = (n *. !sxx) -. (!sx *. !sx) in
  if abs_float denom < 1e-12 then
    invalid_arg "Extrapolate.fit_power_law: degenerate abscissas";
  let exponent = ((n *. !sxy) -. (!sx *. !sy)) /. denom in
  let intercept = (!sy -. (exponent *. !sx)) /. n in
  { coefficient = exp intercept; exponent }

let eval_power_law { coefficient; exponent } x = coefficient *. (x ** exponent)

type prediction = {
  family : Fit.candidate;
  target_size : int;
  laws : (string * power_law) list;
  law : Lv_stats.Distribution.t;
  curve : Speedup.point list;
  limit : float;
}

let predict ?candidates ~target_size ~cores obs =
  if target_size <= 0 then invalid_arg "Extrapolate.predict: target_size must be positive";
  match stable_family ?candidates obs with
  | None -> Error "no candidate family is accepted at every training size"
  | Some { candidate; fits } ->
    (* Collect per-size values of each named parameter of the family. *)
    let param_names =
      match fits with
      | (_, f) :: _ -> List.map fst f.Fit.dist.Lv_stats.Distribution.params
      | [] -> []
    in
    let regress name =
      let pairs =
        List.map
          (fun (size, f) ->
            ( float_of_int size,
              List.assoc name f.Fit.dist.Lv_stats.Distribution.params ))
          fits
      in
      (* A parameter that is ~0 at every size (a vanishing shift) is kept at
         0 rather than power-law-regressed. *)
      if List.for_all (fun (_, v) -> abs_float v < 1e-12) pairs then
        Ok (name, { coefficient = 0.; exponent = 0. })
      else if List.exists (fun (_, v) -> v <= 0.) pairs then
        Error
          (Printf.sprintf
             "parameter %s is nonpositive at some size; cannot regress a power law"
             name)
      else Ok (name, fit_power_law pairs)
    in
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match regress name with
        | Ok r -> collect (r :: acc) rest
        | Error _ as e -> e)
    in
    (match collect [] param_names with
    | Error e -> Error e
    | Ok laws ->
      let params =
        List.map
          (fun (name, pl) -> (name, eval_power_law pl (float_of_int target_size)))
          laws
      in
      (match Fit.instantiate candidate params with
      | law ->
        Ok
          {
            family = candidate;
            target_size;
            laws;
            law;
            curve = Speedup.curve law ~cores;
            limit = Speedup.limit law;
          }
      | exception Invalid_argument msg -> Error msg))

let pp_prediction ppf p =
  Format.fprintf ppf "@[<v>extrapolation to size %d with %s:@," p.target_size
    (Fit.candidate_name p.family);
  List.iter
    (fun (name, pl) ->
      Format.fprintf ppf "  %s(size) = %.6g * size^%.3f@," name pl.coefficient
        pl.exponent)
    p.laws;
  Format.fprintf ppf "  law: %s@," (Lv_stats.Distribution.to_string p.law);
  Format.fprintf ppf "  curve:";
  List.iter (fun pt -> Format.fprintf ppf " %a" Speedup.pp_point pt) p.curve;
  Format.fprintf ppf "@,  limit: %s@]"
    (if Float.is_finite p.limit then Printf.sprintf "%.2f" p.limit else "linear")
