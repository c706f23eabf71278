type worker = {
  deque : (unit -> unit) Deque.t;
  mutable busy_s : float;  (* written only by the executing worker *)
  mutable executed : int;  (* idem *)
}

type t = {
  size : int;
  workers : worker array;
  mutable spawned : unit Domain.t array;
  lock : Mutex.t;  (* guards [stopping] and the sleep protocol *)
  work_cond : Condition.t;
  mutable stopping : bool;
  telemetry : Lv_telemetry.Sink.t;
  tasks_executed : int Atomic.t;
  steals : int Atomic.t;
}

(* Which pool/worker the current domain belongs to, for re-entrant calls
   and worker-local state.  Set once per worker domain, never for callers. *)
let slot_key : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let worker_index () =
  match Domain.DLS.get slot_key with Some (_, w) -> Some w | None -> None

let my_slot pool =
  match Domain.DLS.get slot_key with
  | Some (p, w) when p == pool -> Some w
  | _ -> None

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

let find_task pool w =
  match Deque.pop pool.workers.(w).deque with
  | Some _ as t -> t
  | None ->
    let n = pool.size in
    let rec try_steal k =
      if k >= n then None
      else
        match Deque.steal pool.workers.((w + k) mod n).deque with
        | Some _ as t ->
          Atomic.incr pool.steals;
          t
        | None -> try_steal (k + 1)
    in
    try_steal 1

let has_work pool =
  Array.exists (fun worker -> Deque.size worker.deque > 0) pool.workers

let worker_main pool w () =
  Domain.DLS.set slot_key (Some (pool, w));
  let rec loop () =
    match find_task pool w with
    | Some task ->
      exec pool w task;
      loop ()
    | None ->
      Mutex.lock pool.lock;
      (* Recheck under the lock: a producer pushes, then takes the lock to
         broadcast, so work pushed after our failed scan is visible here
         and the wakeup cannot be lost. *)
      if pool.stopping then Mutex.unlock pool.lock (* drained: exit *)
      else if has_work pool then begin
        Mutex.unlock pool.lock;
        loop ()
      end
      else begin
        Condition.wait pool.work_cond pool.lock;
        Mutex.unlock pool.lock;
        loop ()
      end
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
      workers =
        Array.init size (fun _ ->
            { deque = Deque.create (); busy_s = 0.; executed = 0 });
      spawned = [||];
      lock = Mutex.create ();
      work_cond = Condition.create ();
      stopping = false;
      telemetry;
      tasks_executed = Atomic.make 0;
      steals = Atomic.make 0;
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
    steals = Atomic.get pool.steals;
    queue_high_water =
      Array.fold_left
        (fun acc worker -> Int.max acc (Deque.high_water worker.deque))
        0 pool.workers;
    busy_seconds = Array.map (fun worker -> worker.busy_s) pool.workers;
    worker_tasks = Array.map (fun worker -> worker.executed) pool.workers;
  }

let emit_stats pool =
  let sink = pool.telemetry in
  if not (Lv_telemetry.Sink.is_null sink) then begin
    let s = stats pool in
    let count path value fields =
      Lv_telemetry.Sink.record sink
        (Lv_telemetry.Event.make
           ~ts:(Lv_telemetry.Clock.elapsed ())
           ~path (Lv_telemetry.Event.Count value) ~fields)
    in
    count "pool.tasks" s.tasks
      [ ("domains", Lv_telemetry.Json.Int s.domains) ];
    count "pool.steals" s.steals [];
    count "pool.queue_hwm" s.queue_high_water [];
    Array.iteri
      (fun w busy ->
        Lv_telemetry.Sink.record sink
          (Lv_telemetry.Event.make
             ~ts:(Lv_telemetry.Clock.elapsed ())
             ~path:"pool.worker"
             (Lv_telemetry.Event.Span busy)
             ~fields:
               [
                 ("worker", Lv_telemetry.Json.Int w);
                 ("tasks", Lv_telemetry.Json.Int s.worker_tasks.(w));
               ]))
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

let check_live pool =
  if pool.stopping then invalid_arg "Lv_exec.Pool: pool is shut down"

let wake_all pool =
  Mutex.lock pool.lock;
  Condition.broadcast pool.work_cond;
  Mutex.unlock pool.lock

(* Blocking from inside a worker would starve the pool (deadlock on a pool
   of one), so a worker that must wait runs queued tasks instead; the brief
   cpu_relax spin only happens while the last stragglers of the awaited job
   are in flight on other workers. *)
let help_while pool w not_done =
  while not_done () do
    match find_task pool w with
    | Some task -> exec pool w task
    | None -> Domain.cpu_relax ()
  done

type job = {
  jlock : Mutex.t;
  jcond : Condition.t;
  mutable remaining : int;
  mutable first_error : (exn * Printexc.raw_backtrace) option;
  aborted : bool Atomic.t;
}

let job_done job =
  Mutex.lock job.jlock;
  let d = job.remaining = 0 in
  Mutex.unlock job.jlock;
  d

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

let wait_job pool job =
  match my_slot pool with
  | Some w -> help_while pool w (fun () -> not (job_done job))
  | None ->
    Mutex.lock job.jlock;
    while job.remaining > 0 do
      Condition.wait job.jcond job.jlock
    done;
    Mutex.unlock job.jlock

let parallel_map (type b) ?cancel ?(skipped : b option) pool (f : _ -> b) xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    check_live pool;
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
      let skip_for_cancel =
        match (skipped, cancel) with
        | Some _, Some c -> Cancel.is_set c
        | _ -> false
      in
      if Atomic.get job.aborted then ()
        (* an earlier task raised; its slot is never read *)
      else if skip_for_cancel then results.(i) <- skipped
      else begin
        match f xs.(i) with
        | v -> results.(i) <- Some v
        | exception exn ->
          record_error job exn (Printexc.get_raw_backtrace ())
      end;
      finish_one job
    in
    (* Deterministic round-robin distribution; results are slotted by
       index, so placement affects only load balance, never output. *)
    for i = 0 to n - 1 do
      Deque.push pool.workers.(i mod pool.size).deque (task i)
    done;
    wake_all pool;
    wait_job pool job;
    match job.first_error with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* every non-aborted task filled its slot *))
        results
  end
