type observation = { seconds : float; iterations : int; solved : bool }

type budget = { max_seconds : float option; max_iterations : int option }

let seed ~seed r = seed + r

let unlimited = { max_seconds = None; max_iterations = None }

let budget ?max_seconds ?max_iterations () =
  (match max_seconds with
  | Some s when not (Float.is_finite s) || s < 0. ->
    invalid_arg "Run.budget: max_seconds must be finite and nonnegative"
  | _ -> ());
  (match max_iterations with
  | Some i when i <= 0 -> invalid_arg "Run.budget: max_iterations must be positive"
  | _ -> ());
  { max_seconds; max_iterations }

let once ?params ?(budget = unlimited) ~rng packed =
  let params =
    match budget.max_iterations with
    | None -> params
    | Some cap ->
      let base = Option.value params ~default:Lv_search.Params.default in
      Some
        {
          base with
          Lv_search.Params.max_iterations =
            Int.min cap base.Lv_search.Params.max_iterations;
        }
  in
  (* Monotonic clock: wall-clock (gettimeofday) jumps under NTP adjustment
     and can report negative or skewed durations mid-campaign. *)
  let start = Lv_telemetry.Clock.now_ns () in
  let stop =
    Option.map
      (fun s ->
        let deadline = Int64.add start (Int64.of_float (s *. 1e9)) in
        fun () -> Int64.compare (Lv_telemetry.Clock.now_ns ()) deadline >= 0)
      budget.max_seconds
  in
  let result = Lv_search.Adaptive_search.solve_packed ?params ?stop ~rng packed in
  let seconds =
    Lv_telemetry.Clock.seconds_between ~start
      ~stop:(Lv_telemetry.Clock.now_ns ())
  in
  {
    seconds;
    iterations = Lv_search.Adaptive_search.iterations result;
    solved = Lv_search.Adaptive_search.solved result;
  }
