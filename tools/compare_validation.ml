(* Tolerant comparison of two validation-report JSON files, for the
   golden-report check (test/validation_golden.sh).

   Byte-identity is the wrong bar across machines: the report's floats
   pass through libm (exp/log/erf), whose last-ulp behaviour differs
   between platforms, so the golden compare allows a relative tolerance
   on numbers while every discrete field — structure, strings, integers,
   null-vs-value (the encoder spells NaN as null) — must match exactly.

   Usage: compare_validation GOLDEN.json CANDIDATE.json [RTOL]
   Exit 0 when equivalent; 1 with a path-labelled diff otherwise. *)

module Json = Lv_telemetry.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Relative at every magnitude: a floor of 1 under the scale would turn
   the bound into an absolute [rtol] below 1, where alpha, p-values,
   levels and most spreads live. *)
let close ~rtol a b =
  a = b || abs_float (a -. b) <= rtol *. Float.max (abs_float a) (abs_float b)

let rec diff ~rtol path (a : Json.t) (b : Json.t) =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "mismatch at %s: %s\n" path m;
        false)
      fmt
  in
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y || fail "%b vs %b" x y
  | Json.Int x, Json.Int y -> x = y || fail "%d vs %d" x y
  | Json.String x, Json.String y -> x = y || fail "%S vs %S" x y
  | (Json.Float _ | Json.Int _), (Json.Float _ | Json.Int _) ->
    let x = Option.get (Json.to_float a) and y = Option.get (Json.to_float b) in
    close ~rtol x y || fail "%.17g vs %.17g (rtol %.3g)" x y rtol
  | Json.List xs, Json.List ys ->
    if List.length xs <> List.length ys then
      fail "list length %d vs %d" (List.length xs) (List.length ys)
    else
      List.for_all2
        (fun (i, x) y -> diff ~rtol (Printf.sprintf "%s[%d]" path i) x y)
        (List.mapi (fun i x -> (i, x)) xs)
        ys
  | Json.Obj xs, Json.Obj ys ->
    (* Key order is part of the format (the encoder is deterministic). *)
    if List.map fst xs <> List.map fst ys then
      fail "keys {%s} vs {%s}"
        (String.concat "," (List.map fst xs))
        (String.concat "," (List.map fst ys))
    else
      List.for_all2
        (fun (k, x) (_, y) -> diff ~rtol (path ^ "." ^ k) x y)
        xs ys
  | _ ->
    let kind = function
      | Json.Null -> "null"
      | Json.Bool _ -> "bool"
      | Json.Int _ -> "int"
      | Json.Float _ -> "float"
      | Json.String _ -> "string"
      | Json.List _ -> "list"
      | Json.Obj _ -> "object"
    in
    fail "%s vs %s" (kind a) (kind b)

let () =
  match Array.to_list Sys.argv with
  | _ :: golden :: candidate :: rest ->
    let rtol =
      match rest with
      | [] -> 1e-6
      | [ r ] -> (
        match float_of_string_opt r with
        | Some f when f >= 0. -> f
        | _ ->
          prerr_endline "compare_validation: RTOL must be a nonnegative number";
          exit 2)
      | _ ->
        prerr_endline "usage: compare_validation GOLDEN.json CANDIDATE.json [RTOL]";
        exit 2
    in
    let load path =
      try Json.of_string (read_file path) with
      | Sys_error m ->
        Printf.eprintf "compare_validation: %s\n" m;
        exit 2
      | Json.Parse_error m ->
        Printf.eprintf "compare_validation: %s: %s\n" path m;
        exit 2
    in
    let ok = diff ~rtol "$" (load golden) (load candidate) in
    if ok then print_endline "reports equivalent"
    else begin
      Printf.eprintf "compare_validation: %s and %s differ\n" golden candidate;
      exit 1
    end
  | _ ->
    prerr_endline "usage: compare_validation GOLDEN.json CANDIDATE.json [RTOL]";
    exit 2
