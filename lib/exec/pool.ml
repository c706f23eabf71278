type worker = {
  mutable busy_s : float;  (* written only by the executing worker *)
  mutable executed : int;  (* idem *)
}

type t = {
  size : int;
  workers : worker array;
  mutable spawned : unit Domain.t array;
  lock : Mutex.t;  (* guards [queue], [high_water] and [stopping] *)
  work_cond : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable high_water : int;
  mutable stopping : bool;
  telemetry : Lv_telemetry.Sink.t;
  tasks_executed : int Atomic.t;
}

(* Which pool/worker the current domain belongs to, for nested calls and
   worker-local state.  Set once per worker domain, never for callers. *)
let slot_key : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let worker_index () =
  match Domain.DLS.get slot_key with Some (_, w) -> Some w | None -> None

let on_own_worker pool =
  match Domain.DLS.get slot_key with Some (p, _) -> p == pool | None -> false

let size t = t.size

(* ------------------------------------------------------------------ *)
(* Task execution                                                      *)
(* ------------------------------------------------------------------ *)

let exec pool w task =
  let worker = pool.workers.(w) in
  (* Count before running: barriers are released from *inside* the thunk
     ([finish_one] in [parallel_map]), so accounting done after
     the call races with a caller reading [stats] right after its barrier
     — the final task could still be uncounted. *)
  worker.executed <- worker.executed + 1;
  Atomic.incr pool.tasks_executed;
  let start = Lv_telemetry.Clock.now_ns () in
  (* Queued thunks catch their own user exceptions (see [parallel_map]);
     a raise here would be a pool bug, and letting it kill the
     worker would hang every subsequent barrier, so it is contained. *)
  (try task () with _ -> ());
  worker.busy_s <-
    worker.busy_s
    +. Lv_telemetry.Clock.seconds_between ~start
         ~stop:(Lv_telemetry.Clock.now_ns ())

(* Take tasks in FIFO order until the pool stops and the queue is empty. *)
let worker_main pool w () =
  Domain.DLS.set slot_key (Some (pool, w));
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.stopping do
      Condition.wait pool.work_cond pool.lock
    done;
    match Queue.take_opt pool.queue with
    | Some task ->
      Mutex.unlock pool.lock;
      exec pool w task;
      loop ()
    | None -> Mutex.unlock pool.lock (* stopping and drained: exit *)
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Construction / shutdown                                             *)
(* ------------------------------------------------------------------ *)

let create ?(telemetry = Lv_telemetry.Sink.null) ?domains () =
  let requested =
    match domains with
    | Some d ->
      if d <= 0 then invalid_arg "Lv_exec.Pool.create: domains must be positive";
      d
    | None -> Domain.recommended_domain_count ()
  in
  (* Oversubscription past the recommended count is allowed (stress tests
     want it) but capped below the runtime's hard domain limit. *)
  let size = max 1 (min requested 126) in
  let pool =
    {
      size;
      workers = Array.init size (fun _ -> { busy_s = 0.; executed = 0 });
      spawned = [||];
      lock = Mutex.create ();
      work_cond = Condition.create ();
      queue = Queue.create ();
      high_water = 0;
      stopping = false;
      telemetry;
      tasks_executed = Atomic.make 0;
    }
  in
  pool.spawned <- Array.init size (fun w -> Domain.spawn (worker_main pool w));
  pool

type stats = {
  domains : int;
  tasks : int;
  steals : int;
  queue_high_water : int;
  busy_seconds : float array;
  worker_tasks : int array;
}

let stats pool =
  {
    domains = pool.size;
    tasks = Atomic.get pool.tasks_executed;
    steals = 0;
    queue_high_water = pool.high_water;
    busy_seconds = Array.map (fun worker -> worker.busy_s) pool.workers;
    worker_tasks = Array.map (fun worker -> worker.executed) pool.workers;
  }

let emit_stats pool =
  let sink = pool.telemetry in
  if not (Lv_telemetry.Sink.is_null sink) then begin
    let s = stats pool in
    Lv_telemetry.Sink.emit sink ~path:"pool.tasks"
      ~fields:[ ("domains", Lv_telemetry.Json.Int s.domains) ]
      (Lv_telemetry.Event.Count s.tasks);
    Lv_telemetry.Sink.emit sink ~path:"pool.queue_hwm" ~fields:[]
      (Lv_telemetry.Event.Count s.queue_high_water);
    Array.iteri
      (fun w busy ->
        Lv_telemetry.Sink.emit sink ~path:"pool.worker"
          ~fields:
            [
              ("worker", Lv_telemetry.Json.Int w);
              ("tasks", Lv_telemetry.Json.Int s.worker_tasks.(w));
            ]
          (Lv_telemetry.Event.Span busy))
      s.busy_seconds
  end

let shutdown pool =
  let first =
    Mutex.lock pool.lock;
    let first = not pool.stopping in
    if first then begin
      pool.stopping <- true;
      Condition.broadcast pool.work_cond
    end;
    Mutex.unlock pool.lock;
    first
  in
  if first then begin
    Array.iter Domain.join pool.spawned;
    emit_stats pool
  end

let with_pool ?telemetry ?domains f =
  let pool = create ?telemetry ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)
(* ------------------------------------------------------------------ *)

type job = {
  jlock : Mutex.t;
  jcond : Condition.t;
  mutable remaining : int;
  mutable first_error : (exn * Printexc.raw_backtrace) option;
  aborted : bool Atomic.t;
}

let finish_one job =
  Mutex.lock job.jlock;
  job.remaining <- job.remaining - 1;
  if job.remaining = 0 then Condition.broadcast job.jcond;
  Mutex.unlock job.jlock

let record_error job exn bt =
  Atomic.set job.aborted true;
  Mutex.lock job.jlock;
  if job.first_error = None then job.first_error <- Some (exn, bt);
  Mutex.unlock job.jlock

let wait_job job =
  Mutex.lock job.jlock;
  while job.remaining > 0 do
    Condition.wait job.jcond job.jlock
  done;
  Mutex.unlock job.jlock

(* Queue the whole batch under one lock and wake every worker once. *)
let submit pool tasks =
  Mutex.lock pool.lock;
  if pool.stopping then begin
    Mutex.unlock pool.lock;
    invalid_arg "Lv_exec.Pool: pool is shut down"
  end;
  Array.iter (fun task -> Queue.add task pool.queue) tasks;
  pool.high_water <- Int.max pool.high_water (Queue.length pool.queue);
  Condition.broadcast pool.work_cond;
  Mutex.unlock pool.lock

let parallel_map pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let job =
      {
        jlock = Mutex.create ();
        jcond = Condition.create ();
        remaining = n;
        first_error = None;
        aborted = Atomic.make false;
      }
    in
    let task i () =
      if Atomic.get job.aborted then ()
        (* an earlier task raised; its slot is never read *)
      else begin
        match f xs.(i) with
        | v -> results.(i) <- Some v
        | exception exn ->
          record_error job exn (Printexc.get_raw_backtrace ())
      end;
      finish_one job
    in
    (* A worker waiting on its own pool could starve it (a pool of one
       would deadlock), so a nested call runs its batch inline. *)
    if on_own_worker pool then
      for i = 0 to n - 1 do
        task i ()
      done
    else begin
      submit pool (Array.init n task);
      wait_job job
    end;
    match job.first_error with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* every non-aborted task filled its slot *))
        results
  end

let map pool f xs =
  match pool with Some p -> parallel_map p f xs | None -> Array.map f xs
