type result = {
  observations : Run.observation list;
  iterations : Dataset.t;
  seconds : Dataset.t;
  n_censored : int;
  n_retried : int;
  n_restored : int;
}

(* Observations restored from a checkpoint, slotted by run index.  A
   checkpoint written by a different campaign (seed mismatch) is rejected:
   mixing foreign runs in silently would corrupt the dataset. *)
let restore_slots ~path ~seed ~runs =
  let slots = Array.make runs None in
  List.iter
    (fun e ->
      let r = e.Checkpoint.run in
      if r >= 0 && r < runs then begin
        if e.Checkpoint.seed <> seed + r then
          invalid_arg
            (Printf.sprintf
               "Campaign.run: checkpoint %s belongs to a different campaign \
                (run %d recorded with seed %d, expected %d)"
               path r e.Checkpoint.seed (seed + r));
        slots.(r) <- Some (Checkpoint.observation_of_entry e)
      end)
    (Checkpoint.load path);
  slots

let run_fn ?(ctx = Lv_context.Context.default) ?progress ?checkpoint
    ?(retry = Retry.none) ~label ~seed ~runs make_runner =
  let { Lv_context.Context.pool; telemetry; _ } = ctx in
  if runs <= 0 then invalid_arg "Campaign.run: runs must be positive";
  if retry.Retry.max_attempts <= 0 then
    invalid_arg "Campaign.run: retry.max_attempts must be positive";
  let traced = not (Lv_telemetry.Sink.is_null telemetry) in
  let n_censored_cell = ref 0 in
  let retries = Atomic.make 0 in
  let retried_runs = Atomic.make 0 in
  let restored =
    match checkpoint with
    | Some path -> restore_slots ~path ~seed ~runs
    | None -> Array.make runs None
  in
  let n_restored =
    Array.fold_left (fun n s -> if s = None then n else n + 1) 0 restored
  in
  let body () =
    let with_p f =
      match pool with
      | Some p -> f p
      | None -> Lv_exec.Pool.with_pool ~domains:1 f
    in
    let with_log f =
      (* Nothing left to append when every run was restored — and opening
         the writer would pointlessly touch the file. *)
      match checkpoint with
      | Some path when n_restored < runs ->
        Checkpoint.with_writer path (fun w -> f (Some w))
      | _ -> f None
    in
    with_log @@ fun log ->
    with_p @@ fun p ->
    (* One runner per pool worker, created lazily on that worker's first
       run: instances are mutable and must not be shared, but they are
       profitably reused across the runs one worker executes.  Each slot is
       only ever touched by its own worker. *)
    let runners = Array.make (Lv_exec.Pool.size p) None in
    let completed = Atomic.make 0 in
    let fresh_run r =
      let w = Option.value (Lv_exec.Pool.worker_index ()) ~default:0 in
      let runner =
        match runners.(w) with
        | Some f -> f
        | None ->
          let f = make_runner () in
          runners.(w) <- Some f;
          f
      in
      let retried_this_run = ref false in
      let obs =
        Retry.with_retries retry
          ~on_retry:(fun ~attempt exn ->
            Atomic.incr retries;
            if not !retried_this_run then begin
              retried_this_run := true;
              Atomic.incr retried_runs
            end;
            if traced then
              Lv_telemetry.Sink.record telemetry
                (Lv_telemetry.Event.make
                   ~ts:(Lv_telemetry.Clock.elapsed ())
                   ~path:"campaign.retry" Lv_telemetry.Event.Mark
                   ~fields:
                     [
                       ("run", Lv_telemetry.Json.Int r);
                       ("attempt", Lv_telemetry.Json.Int attempt);
                       ( "error",
                         Lv_telemetry.Json.String (Printexc.to_string exn) );
                     ]))
          (fun () ->
            (* The generator is recreated per attempt, so a retried run
               replays the exact same random walk: retries are invisible
               in the dataset. *)
            let rng = Lv_stats.Rng.create ~seed:(seed + r) in
            runner rng)
      in
      (* Log before counting the run as done: a crash between the two at
         worst replays a completed run on resume, never loses one. *)
      (match log with
      | Some w ->
        Checkpoint.append w
          (Checkpoint.entry_of_observation ~run:r ~seed:(seed + r) obs)
      | None -> ());
      (* Fixed path, not the domain-local nesting path: runs execute on
         pool workers (outside the "campaign" span's domain), and all
         their run events must aggregate into one phase. *)
      if traced then
        Lv_telemetry.Sink.record telemetry
          (Lv_telemetry.Event.make
             ~ts:(Lv_telemetry.Clock.elapsed ())
             ~path:"campaign.run"
             (Lv_telemetry.Event.Span obs.Run.seconds)
             ~fields:
               [
                 ("run", Lv_telemetry.Json.Int r);
                 ("seed", Lv_telemetry.Json.Int (seed + r));
                 ("domain", Lv_telemetry.Json.Int w);
                 ("iterations", Lv_telemetry.Json.Int obs.Run.iterations);
                 ("solved", Lv_telemetry.Json.Bool obs.Run.solved);
               ]);
      obs
    in
    let one_run r =
      let obs =
        match restored.(r) with Some obs -> obs | None -> fresh_run r
      in
      let done_ = Atomic.fetch_and_add completed 1 + 1 in
      (match progress with Some f -> f done_ | None -> ());
      obs
    in
    (* Result slot [r] is filled by run [r] wherever it executed, so the
       dataset is byte-identical for every pool size; a runner exception
       that survives the retry policy aborts the campaign — the pool joins
       every in-flight run first, then re-raises it here (no leaked
       domains, no unclaimed slots).  With a checkpoint, completed runs
       were already logged, so the aborted campaign resumes where it
       died. *)
    let observations =
      Array.to_list (Lv_exec.Pool.parallel_map p one_run (Array.init runs Fun.id))
    in
    let n_censored =
      List.length (List.filter (fun o -> not o.Run.solved) observations)
    in
    n_censored_cell := n_censored;
    if traced then begin
      let count path value =
        Lv_telemetry.Sink.record telemetry
          (Lv_telemetry.Event.make
             ~ts:(Lv_telemetry.Clock.elapsed ())
             ~path (Lv_telemetry.Event.Count value))
      in
      count "campaign.censored" n_censored;
      count "campaign.retry" (Atomic.get retries);
      count "checkpoint.skipped" n_restored
    end;
    if n_censored = runs then
      invalid_arg "Campaign.run: no run solved the instance; raise the budget";
    {
      observations;
      iterations = Dataset.of_observations ~label ~metric:`Iterations observations;
      seconds = Dataset.of_observations ~label ~metric:`Seconds observations;
      n_censored;
      n_retried = Atomic.get retried_runs;
      n_restored;
    }
  in
  Lv_telemetry.Span.run telemetry ~name:"campaign"
    ~fields:(fun () ->
      [
        ("label", Lv_telemetry.Json.String label);
        ("runs", Lv_telemetry.Json.Int runs);
        ( "domains",
          Lv_telemetry.Json.Int
            (match pool with Some p -> Lv_exec.Pool.size p | None -> 1) );
        ("seed", Lv_telemetry.Json.Int seed);
        ("censored", Lv_telemetry.Json.Int !n_censored_cell);
        ("retries", Lv_telemetry.Json.Int (Atomic.get retries));
        ("restored", Lv_telemetry.Json.Int n_restored);
      ])
    body

let censored_iterations result =
  result.observations
  |> List.filter_map (fun o ->
         if o.Run.solved then None else Some (float_of_int o.Run.iterations))
  |> Array.of_list

let run ?ctx ?params ?budget ?progress ?checkpoint ?retry ~label ~seed ~runs
    make_instance =
  run_fn ?ctx ?progress ?checkpoint ?retry ~label ~seed ~runs (fun () ->
      let packed = make_instance () in
      fun rng -> Run.once ?params ?budget ~rng packed)
