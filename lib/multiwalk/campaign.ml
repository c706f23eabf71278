type result = {
  observations : Run.observation list;
  iterations : Dataset.t;
  seconds : Dataset.t;
  n_censored : int;
  n_retried : int;
  n_restored : int;
}

exception Unusable_checkpoint of string

(* The run columns, with the runs a checkpoint holds filled in.  A log
   corrupt before its last line, or written by a different campaign (seed
   mismatch), is rejected before any run starts: mixing unreadable or
   foreign runs in silently would corrupt the dataset. *)
let restore ~path ~seed cols =
  match
    try Checkpoint.restore path ~seed cols
    with Failure msg -> raise (Unusable_checkpoint msg)
  with
  | None -> ()
  | Some (r, recorded) ->
    raise
      (Unusable_checkpoint
         (Printf.sprintf
            "Campaign.run: checkpoint %s belongs to a different campaign (run \
             %d recorded with seed %d, expected %d)"
            path r recorded (seed + r)))

(* The observation list and both datasets, in run order, in one pass over
   the columns. *)
let assemble ~label (cols : Checkpoint.columns) =
  let runs = Array.length cols.solved in
  let n_solved =
    Array.fold_left (fun n s -> if s then n + 1 else n) 0 cols.solved
  in
  let n_censored = runs - n_solved in
  let it_values = Array.make n_solved 0. and it_censored = Array.make n_censored 0. in
  let s_values = Array.make n_solved 0. and s_censored = Array.make n_censored 0. in
  let observations = ref [] in
  let v = ref n_solved and c = ref n_censored in
  for r = runs - 1 downto 0 do
    let iterations = cols.iterations.(r) and seconds = cols.seconds.(r) in
    let solved = cols.solved.(r) in
    observations := { Run.seconds; iterations; solved } :: !observations;
    if solved then begin
      decr v;
      it_values.(!v) <- float_of_int iterations;
      s_values.(!v) <- seconds
    end
    else begin
      decr c;
      it_censored.(!c) <- float_of_int iterations;
      s_censored.(!c) <- seconds
    end
  done;
  let dataset metric values censored = { Dataset.label; metric; values; censored } in
  ( !observations,
    dataset "iterations" it_values it_censored,
    dataset "seconds" s_values s_censored,
    n_censored )

let run_fn ?(ctx = Lv_context.Context.default) ?progress ?checkpoint ~label
    ~seed ~runs make_runner =
  let { Lv_context.Context.pool; telemetry; _ } = ctx in
  if runs <= 0 then invalid_arg "Campaign.run: runs must be positive";
  let traced = not (Lv_telemetry.Sink.is_null telemetry) in
  let n_censored_cell = ref 0 in
  let cols = Checkpoint.columns ~runs in
  Option.iter (fun path -> restore ~path ~seed cols) checkpoint;
  let n_restored =
    Array.fold_left (fun n s -> if s then n + 1 else n) 0 cols.restored
  in
  let body () =
    (* Only the runs missing from the log execute. *)
    let missing = Array.make (runs - n_restored) 0 in
    let k = ref 0 in
    for r = 0 to runs - 1 do
      if not cols.restored.(r) then begin
        missing.(!k) <- r;
        incr k
      end
    done;
    let with_log f =
      (* Nothing left to append when every run was restored — and opening
         the writer would pointlessly touch the file. *)
      match checkpoint with
      | Some path when n_restored < runs ->
        Checkpoint.with_writer path (fun w -> f (Some w))
      | _ -> f None
    in
    with_log @@ fun log ->
    (* One runner per pool worker (one without a pool), created lazily on
       that worker's first run: instances are mutable and must not be
       shared, but they are profitably reused across the runs one worker
       executes.  Each slot is only ever touched by its own worker. *)
    let runners =
      Array.make (match pool with Some p -> Lv_exec.Pool.size p | None -> 1) None
    in
    let completed = Atomic.make n_restored in
    let fresh_run r =
      let w =
        match pool with
        | Some _ -> Option.value (Lv_exec.Pool.worker_index ()) ~default:0
        | None -> 0
      in
      let runner =
        match runners.(w) with
        | Some f -> f
        | None ->
          let f = make_runner () in
          runners.(w) <- Some f;
          f
      in
      let obs = runner (Lv_stats.Rng.create ~seed:(seed + r)) in
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
        Lv_telemetry.Sink.emit telemetry ~path:"campaign.run"
          ~fields:
            [
              ("run", Lv_telemetry.Json.Int r);
              ("seed", Lv_telemetry.Json.Int (seed + r));
              ("domain", Lv_telemetry.Json.Int w);
              ("iterations", Lv_telemetry.Json.Int obs.Run.iterations);
              ("solved", Lv_telemetry.Json.Bool obs.Run.solved);
            ]
          (Lv_telemetry.Event.Span obs.Run.seconds);
      let done_ = Atomic.fetch_and_add completed 1 + 1 in
      (match progress with Some f -> f done_ | None -> ());
      obs
    in
    (* Result [i] is run [missing.(i)] wherever it executed, so the
       dataset is byte-identical for every pool size; without a pool the
       runs execute in order on the calling domain, and with nothing
       missing the pool is not touched.  A runner exception aborts the
       campaign — the pool joins every in-flight run first, then re-raises
       it here (no leaked domains, no unclaimed slots).  With a checkpoint,
       completed runs were already logged, so the aborted campaign resumes
       where it died. *)
    let fresh =
      match pool with
      | Some p -> Lv_exec.Pool.parallel_map p fresh_run missing
      | None -> Array.map fresh_run missing
    in
    Array.iteri
      (fun i r ->
        let o = fresh.(i) in
        cols.iterations.(r) <- o.Run.iterations;
        cols.seconds.(r) <- o.Run.seconds;
        cols.solved.(r) <- o.Run.solved)
      missing;
    let observations, iterations, seconds, n_censored = assemble ~label cols in
    n_censored_cell := n_censored;
    Lv_telemetry.Sink.emit telemetry ~path:"campaign.censored" ~fields:[]
      (Lv_telemetry.Event.Count n_censored);
    Lv_telemetry.Sink.emit telemetry ~path:"checkpoint.skipped" ~fields:[]
      (Lv_telemetry.Event.Count n_restored);
    if n_censored = runs then
      invalid_arg "Campaign.run: no run solved the instance; raise the budget";
    {
      observations;
      iterations;
      seconds;
      n_censored;
      n_retried = 0;
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
        ("restored", Lv_telemetry.Json.Int n_restored);
      ])
    body

let censored_iterations result =
  result.observations
  |> List.filter_map (fun o ->
         if o.Run.solved then None else Some (float_of_int o.Run.iterations))
  |> Array.of_list

let run ?ctx ?params ?budget ?progress ?checkpoint ~label ~seed ~runs
    make_instance =
  run_fn ?ctx ?progress ?checkpoint ~label ~seed ~runs (fun () ->
      let packed = make_instance () in
      fun rng -> Run.once ?params ?budget ~rng packed)
