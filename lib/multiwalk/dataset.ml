type t = {
  label : string;
  metric : string;
  values : float array;
  censored : float array;
}

let create ?(censored = [||]) ~label ~metric values =
  if Array.length values = 0 then invalid_arg "Dataset.create: empty dataset";
  { label; metric; values = Array.copy values; censored = Array.copy censored }

let of_observations ~label ~metric obs =
  let project o =
    match metric with
    | `Iterations -> float_of_int o.Run.iterations
    | `Seconds -> o.Run.seconds
  in
  let metric_name = match metric with `Iterations -> "iterations" | `Seconds -> "seconds" in
  let solved, unsolved = List.partition (fun o -> o.Run.solved) obs in
  create ~label ~metric:metric_name
    ~censored:(Array.of_list (List.map project unsolved))
    (Array.of_list (List.map project solved))

let synthetic ~label d ~rng n =
  if n <= 0 then invalid_arg "Dataset.synthetic: n must be positive";
  create ~label ~metric:"synthetic" (Lv_stats.Distribution.sample_array d rng n)

let size t = Array.length t.values
let n_censored t = Array.length t.censored

let censored_fraction t =
  let n = size t + n_censored t in
  if n = 0 then 0. else float_of_int (n_censored t) /. float_of_int n

let summary t = Lv_stats.Summary.of_array t.values
let empirical t = Lv_stats.Empirical.of_array t.values

let save_csv t path =
  Lv_telemetry.File.write path @@ fun oc ->
  Printf.fprintf oc "# label=%s metric=%s\nindex,value,status\n" t.label
    t.metric;
  Array.iteri (fun i v -> Printf.fprintf oc "%d,%.17g,solved\n" i v) t.values;
  let base = Array.length t.values in
  Array.iteri
    (fun i v -> Printf.fprintf oc "%d,%.17g,censored\n" (base + i) v)
    t.censored

(* The last index at or before [i] at which [sub] occurs in [s]. *)
let rec last_index s sub i =
  if i < 0 then None
  else if String.sub s i (String.length sub) = sub then Some i
  else last_index s sub (i - 1)

(* The header [save_csv] writes, "# label=<label> metric=<metric>".  A label
   may hold spaces, so it runs from "label=" to the last " metric=". *)
let read_header line ~label ~metric =
  let n = String.length line in
  let metric_at = last_index line " metric=" (n - 8) in
  let label_end = Option.value metric_at ~default:n in
  let body = String.trim (String.sub line 1 (label_end - 1)) in
  if String.starts_with ~prefix:"label=" body then
    label := String.sub body 6 (String.length body - 6);
  Option.iter (fun i -> metric := String.sub line (i + 8) (n - i - 8)) metric_at

let load_csv path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail lineno fmt =
        Printf.ksprintf
          (fun msg ->
            failwith (Printf.sprintf "Dataset.load_csv: %s:%d: %s" path lineno msg))
          fmt
      in
      let values = ref [] and censored = ref [] in
      let file_label = ref (Filename.basename path) in
      let file_metric = ref "unknown" in
      let lineno = ref 0 in
      let saw_data = ref false and saw_header = ref false in
      (* The value column may legitimately fail to parse exactly once: on a
         single header row ("value" / "index,value,status") before any data.
         Everything else malformed names its line instead of vanishing. *)
      let header_allowed () = (not !saw_header) && not !saw_data in
      let add cell v =
        if Float.is_nan v then fail !lineno "value is NaN"
        else if not (Float.is_finite v) then fail !lineno "value is infinite"
        else begin
          saw_data := true;
          cell := v :: !cell
        end
      in
      (try
         while true do
           let line = String.trim (input_line ic) in
           incr lineno;
           if String.length line = 0 then ()
           else if line.[0] = '#' then
             read_header line ~label:file_label ~metric:file_metric
           else begin
             let fields = String.split_on_char ',' line |> List.map String.trim in
             match fields with
             | [ _; v; status ] -> (
               match float_of_string_opt v with
               | Some f -> (
                 match String.lowercase_ascii status with
                 | "solved" -> add values f
                 | "censored" -> add censored f
                 | _ -> fail !lineno "unknown status %S (expected solved|censored)" status)
               | None ->
                 if header_allowed () then saw_header := true
                 else fail !lineno "malformed value %S" v)
             | [ _; v ] | [ v ] -> (
               match float_of_string_opt v with
               | Some f -> add values f
               | None ->
                 if header_allowed () then saw_header := true
                 else fail !lineno "malformed value %S" v)
             | _ ->
               fail !lineno "expected 1-3 comma-separated fields, got %d"
                 (List.length fields)
           end
         done
       with End_of_file -> ());
      create ~label:!file_label ~metric:!file_metric
        ~censored:(Array.of_list (List.rev !censored))
        (Array.of_list (List.rev !values)))
