type outcome = {
  walkers : int;
  winner : int option;
  seconds : float;
  min_iterations : int;
  solved : bool;
}

let walker_event telemetry ~w ~iterations ~solved ~seconds =
  Lv_telemetry.Sink.record telemetry
    (Lv_telemetry.Event.make
       ~ts:(Lv_telemetry.Clock.elapsed ())
       ~path:"race.walker"
       (Lv_telemetry.Event.Span seconds)
       ~fields:
         [
           ("walker", Lv_telemetry.Json.Int w);
           ("iterations", Lv_telemetry.Json.Int iterations);
           ("solved", Lv_telemetry.Json.Bool solved);
         ])

let outcome_fields o =
  [
    ("walkers", Lv_telemetry.Json.Int o.walkers);
    ( "winner",
      match o.winner with
      | Some w -> Lv_telemetry.Json.Int w
      | None -> Lv_telemetry.Json.Null );
    ("min_iterations", Lv_telemetry.Json.Int o.min_iterations);
    ("solved", Lv_telemetry.Json.Bool o.solved);
  ]

let wall_clock ?(ctx = Lv_context.Context.default) ?params ~seed ~walkers
    make_instance =
  if walkers <= 0 then invalid_arg "Race.wall_clock: walkers must be positive";
  let { Lv_context.Context.pool; telemetry; _ } = ctx in
  let p = match pool with Some p -> p | None -> Lv_exec.Pool.default () in
  let traced = not (Lv_telemetry.Sink.is_null telemetry) in
  let found = Atomic.make (-1) in
  let cancel = Lv_exec.Cancel.create () in
  (* Monotonic: gettimeofday can step under NTP and skew race durations. *)
  let t0 = Lv_telemetry.Clock.now_ns () in
  let walker w =
    let packed = make_instance () in
    let rng = Lv_stats.Rng.create ~seed:(seed + w) in
    (* The winner flag doubles as the in-flight stop signal: walkers
       already running poll it from inside the solver and abandon. *)
    let stop () = Atomic.get found >= 0 in
    let start = Lv_telemetry.Clock.now_ns () in
    let result = Lv_search.Adaptive_search.solve_packed ?params ~stop ~rng packed in
    if Lv_search.Adaptive_search.solved result then
      (* First writer wins; later finishers leave the flag alone.  The
         cancel token then keeps walkers that have not yet started off
         the pool entirely. *)
      if Atomic.compare_and_set found (-1) w then Lv_exec.Cancel.set cancel;
    let iterations = Lv_search.Adaptive_search.iterations result in
    if traced then
      walker_event telemetry ~w ~iterations
        ~solved:(Lv_search.Adaptive_search.solved result)
        ~seconds:
          (Lv_telemetry.Clock.seconds_between ~start
             ~stop:(Lv_telemetry.Clock.now_ns ()));
    Some iterations
  in
  let outcome_cell = ref None in
  let body () =
    let iters =
      Lv_exec.Pool.parallel_map ~cancel ~skipped:None p walker
        (Array.init walkers Fun.id)
    in
    let seconds =
      Lv_telemetry.Clock.seconds_between ~start:t0
        ~stop:(Lv_telemetry.Clock.now_ns ())
    in
    let w = Atomic.get found in
    let o =
      if w >= 0 then
        let min_iterations =
          match iters.(w) with Some it -> it | None -> assert false
          (* the winner ran to completion, so its slot is filled *)
        in
        { walkers; winner = Some w; seconds; min_iterations; solved = true }
      else
        let ran = Array.to_list iters |> List.filter_map Fun.id in
        {
          walkers;
          winner = None;
          seconds;
          (* no winner ⇒ the cancel token was never set ⇒ every walker
             ran, so [ran] is non-empty *)
          min_iterations = List.fold_left Int.min (List.hd ran) ran;
          solved = false;
        }
    in
    outcome_cell := Some o;
    o
  in
  Lv_telemetry.Span.run telemetry ~name:"race"
    ~fields:(fun () ->
      match !outcome_cell with Some o -> outcome_fields o | None -> [])
    body

let iteration_metric ?(ctx = Lv_context.Context.default) ?params ~seed
    ~walkers make_instance =
  if walkers <= 0 then invalid_arg "Race.iteration_metric: walkers must be positive";
  let t0 = Lv_telemetry.Clock.now_ns () in
  let c =
    Campaign.run ~ctx ?params ~label:"race" ~seed ~runs:walkers make_instance
  in
  let seconds =
    Lv_telemetry.Clock.seconds_between ~start:t0
      ~stop:(Lv_telemetry.Clock.now_ns ())
  in
  let best = ref None in
  List.iteri
    (fun w o ->
      if o.Run.solved then
        match !best with
        | Some (_, it) when it <= o.Run.iterations -> ()
        | _ -> best := Some (w, o.Run.iterations))
    c.Campaign.observations;
  let outcome =
    match !best with
    | Some (w, it) ->
      { walkers; winner = Some w; seconds; min_iterations = it; solved = true }
    | None -> { walkers; winner = None; seconds; min_iterations = 0; solved = false }
  in
  Lv_telemetry.Span.emit ctx.telemetry ~name:"race" ~duration:seconds
    ~fields:(outcome_fields outcome) ();
  outcome

let pp_outcome ppf o =
  Format.fprintf ppf "walkers=%d %s winner=%s %.3fs min_iters=%d" o.walkers
    (if o.solved then "solved" else "unsolved")
    (match o.winner with Some w -> string_of_int w | None -> "-")
    o.seconds o.min_iterations
