type phase = {
  path : string;
  count : int;
  errors : int;
  total_s : float;
  min_s : float;
  mean_s : float;
  p50_s : float;
  p90_s : float;
  max_s : float;
  rate_per_s : float;
  solved : int;
  unsolved : int;
}

type t = {
  events : int;
  wall_s : float;
  phases : phase list;
  counters : (string * int) list;
  marks : int;
}

let phase_of_durations path events =
  let durations =
    events
    |> List.filter_map (fun e ->
           match e.Event.kind with Event.Span d -> Some d | _ -> None)
    |> Array.of_list
  in
  Array.sort Float.compare durations;
  let count = Array.length durations in
  let total_s = Array.fold_left ( +. ) 0. durations in
  let quantile p =
    if count = 0 then 0. else Lv_stats.Summary.sorted_quantile durations p
  in
  let bool_field name e = Event.field name e |> fun v -> Option.bind v Json.to_bool in
  let count_field name v =
    List.length
      (List.filter (fun e -> bool_field name e = Some v) events)
  in
  {
    path;
    count;
    errors = count_field "error" true;
    total_s;
    min_s = (if count = 0 then 0. else durations.(0));
    mean_s = (if count = 0 then 0. else total_s /. float_of_int count);
    p50_s = quantile 0.5;
    p90_s = quantile 0.9;
    max_s = (if count = 0 then 0. else durations.(count - 1));
    rate_per_s = (if total_s > 0. then float_of_int count /. total_s else 0.);
    solved = count_field "solved" true;
    unsolved = count_field "solved" false;
  }

let of_events events =
  let spans = Hashtbl.create 16 in
  let counters = Hashtbl.create 16 in
  let counter_order = ref [] in
  let marks = ref 0 in
  let lo = ref infinity and hi = ref neg_infinity in
  List.iter
    (fun e ->
      if e.Event.ts < !lo then lo := e.Event.ts;
      if e.Event.ts > !hi then hi := e.Event.ts;
      match e.Event.kind with
      | Event.Span _ ->
        let existing = Option.value (Hashtbl.find_opt spans e.Event.path) ~default:[] in
        Hashtbl.replace spans e.Event.path (e :: existing)
      | Event.Count n ->
        if not (Hashtbl.mem counters e.Event.path) then
          counter_order := e.Event.path :: !counter_order;
        (* Last snapshot wins: counters are monotone accumulators and the
           events arrive in emission order. *)
        Hashtbl.replace counters e.Event.path n
      | Event.Mark -> incr marks)
    events;
  let phases =
    Hashtbl.fold (fun path evs acc -> (path, evs) :: acc) spans []
    |> List.map (fun (path, evs) -> phase_of_durations path (List.rev evs))
    |> List.sort (fun a b -> String.compare a.path b.path)
  in
  {
    events = List.length events;
    wall_s = (if !hi >= !lo then !hi -. !lo else 0.);
    phases;
    counters =
      List.rev_map (fun p -> (p, Hashtbl.find counters p)) !counter_order;
    marks = !marks;
  }

let find_phase t path = List.find_opt (fun p -> p.path = path) t.phases

let load_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let events = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if String.length line > 0 then
             events := Event.of_json (Json.of_string line) :: !events
         done
       with End_of_file -> ());
      List.rev !events)

let phase_to_json p =
  Json.Obj
    [
      ("path", Json.String p.path);
      ("count", Json.Int p.count);
      ("errors", Json.Int p.errors);
      ("total_s", Json.Float p.total_s);
      ("min_s", Json.Float p.min_s);
      ("mean_s", Json.Float p.mean_s);
      ("p50_s", Json.Float p.p50_s);
      ("p90_s", Json.Float p.p90_s);
      ("max_s", Json.Float p.max_s);
      ("rate_per_s", Json.Float p.rate_per_s);
      ("solved", Json.Int p.solved);
      ("unsolved", Json.Int p.unsolved);
    ]

let to_json t =
  Json.Obj
    [
      ("events", Json.Int t.events);
      ("wall_s", Json.Float t.wall_s);
      ("phases", Json.List (List.map phase_to_json t.phases));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
      ("marks", Json.Int t.marks);
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>%d events over %.3fs wall@," t.events t.wall_s;
  Format.fprintf ppf "%-32s %6s %9s %9s %9s %9s %9s %9s@," "phase" "count"
    "total" "mean" "p50" "p90" "max" "runs/s";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-32s %6d %8.3fs %7.2fms %7.2fms %7.2fms %7.2fms %9.1f"
        p.path p.count p.total_s (1000. *. p.mean_s) (1000. *. p.p50_s)
        (1000. *. p.p90_s) (1000. *. p.max_s) p.rate_per_s;
      if p.solved + p.unsolved > 0 then
        Format.fprintf ppf "   solved %d/%d" p.solved (p.solved + p.unsolved);
      if p.errors > 0 then Format.fprintf ppf "   errors %d" p.errors;
      Format.fprintf ppf "@,")
    t.phases;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "counter %-24s %d@," name v)
    t.counters;
  if t.marks > 0 then Format.fprintf ppf "%d mark events@," t.marks;
  Format.fprintf ppf "@]"
