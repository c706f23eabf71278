(* Tests for the lib/exec executor: the work-stealing deque in isolation,
   then the pool's contracts — deterministic result ordering, the exception
   barrier, cooperative cancellation, re-entrancy, telemetry accounting —
   and the end-to-end determinism guarantee campaigns rely on. *)

module Pool = Lv_exec.Pool
module Deque = Lv_exec.Deque
module Cancel = Lv_exec.Cancel

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)
(* ------------------------------------------------------------------ *)

let test_deque_lifo_fifo () =
  let d = Deque.create () in
  List.iter (fun x -> Deque.push d x) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "size" 4 (Deque.size d);
  (* Owner pops newest first... *)
  Alcotest.(check (option int)) "pop LIFO" (Some 4) (Deque.pop d);
  (* ...thieves steal oldest first. *)
  Alcotest.(check (option int)) "steal FIFO" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "steal next" (Some 2) (Deque.steal d);
  Alcotest.(check (option int)) "pop last" (Some 3) (Deque.pop d);
  Alcotest.(check (option int)) "pop empty" None (Deque.pop d);
  Alcotest.(check (option int)) "steal empty" None (Deque.steal d)

let test_deque_growth_and_high_water () =
  (* Push far past the initial capacity, with interleaved pops so the ring
     wraps around before it grows. *)
  let d = Deque.create ~capacity:4 () in
  for i = 1 to 3 do Deque.push d i done;
  ignore (Deque.steal d);
  ignore (Deque.steal d);
  for i = 4 to 1001 do Deque.push d i done;
  (* Queued now: 3..1001. *)
  Alcotest.(check int) "size" 999 (Deque.size d);
  Alcotest.(check int) "high water" 999 (Deque.high_water d);
  (* FIFO order of everything still queued survives the reallocations. *)
  for i = 3 to 1001 do
    match Deque.steal d with
    | Some v -> if v <> i then Alcotest.failf "steal %d: got %d" i v
    | None -> Alcotest.failf "deque dry at %d" i
  done;
  Alcotest.(check (option int)) "drained" None (Deque.steal d);
  Alcotest.(check int) "empty" 0 (Deque.size d)

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_map_preserves_order () =
  Pool.with_pool ~domains:4 @@ fun p ->
  let xs = Array.init 500 Fun.id in
  let ys = Pool.parallel_map p (fun x -> x * x) xs in
  Array.iteri
    (fun i y -> if y <> i * i then Alcotest.failf "slot %d holds %d" i y)
    ys;
  (* Empty input short-circuits. *)
  Alcotest.(check int) "empty map" 0
    (Array.length (Pool.parallel_map p (fun x -> x) [||]))

let test_pool_sizing () =
  Pool.with_pool ~domains:3 @@ fun p ->
  Alcotest.(check int) "explicit size" 3 (Pool.size p);
  Alcotest.(check bool) "caller is not a worker" true
    (Pool.worker_index () = None);
  let inside =
    Pool.parallel_map p (fun _ -> Pool.worker_index ()) (Array.make 64 ())
  in
  Array.iter
    (function
      | Some w ->
        if w < 0 || w >= 3 then Alcotest.failf "worker index %d out of range" w
      | None -> Alcotest.fail "task ran outside a worker")
    inside;
  Alcotest.check_raises "zero domains rejected"
    (Invalid_argument "Lv_exec.Pool.create: domains must be positive")
    (fun () -> ignore (Pool.create ~domains:0 ()))

exception Task_failed of int

let test_pool_exception_barrier () =
  Pool.with_pool ~domains:2 @@ fun p ->
  let ran = Atomic.make 0 in
  (match
     Pool.parallel_map p
       (fun i ->
         Atomic.incr ran;
         if i = 7 then raise (Task_failed i);
         i)
       (Array.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "exception was swallowed"
  | exception Task_failed 7 -> ());
  (* The barrier joined: the pool is still fully usable afterwards. *)
  let ys = Pool.parallel_map p (fun x -> x + 1) (Array.init 50 Fun.id) in
  Alcotest.(check int) "pool alive after raise" 50 (Array.length ys);
  Alcotest.(check bool) "some tasks were skipped after the raise" true
    (Atomic.get ran <= 100)

let test_pool_nested_map_no_deadlock () =
  (* A task that itself maps on the same pool must help execute queued
     tasks instead of blocking — even on a pool of one. *)
  Pool.with_pool ~domains:1 @@ fun p ->
  let ys =
    Pool.parallel_map p
      (fun i ->
        let inner =
          Pool.parallel_map p (fun j -> (10 * i) + j) (Array.init 4 Fun.id)
        in
        Array.fold_left ( + ) 0 inner)
      (Array.init 8 Fun.id)
  in
  Array.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "nested sum %d" i)
        ((40 * i) + 6) s)
    ys

(* ------------------------------------------------------------------ *)
(* Cancellation                                                        *)
(* ------------------------------------------------------------------ *)

let test_cancel_preset_skips_everything () =
  Pool.with_pool ~domains:2 @@ fun p ->
  let cancel = Cancel.create () in
  Cancel.set cancel;
  let ran = Atomic.make 0 in
  let ys =
    Pool.parallel_map ~cancel ~skipped:(-1) p
      (fun i ->
        Atomic.incr ran;
        i)
      (Array.init 64 Fun.id)
  in
  Alcotest.(check int) "nothing ran" 0 (Atomic.get ran);
  Array.iter (fun y -> Alcotest.(check int) "skipped slot" (-1) y) ys

let test_cancel_stops_in_flight_walkers () =
  (* Every task flips the token, so after the first executed task the rest
     must be skipped or have observed the token themselves: each slot holds
     either its own index (ran) or the skip value.  At least one ran (the
     one that set the token); on any pool size at most [workers] can be
     mid-flight when it is set, so with many more tasks than workers some
     skips must occur. *)
  Pool.with_pool ~domains:2 @@ fun p ->
  let cancel = Cancel.create () in
  let ran = Atomic.make 0 in
  let n = 512 in
  let ys =
    Pool.parallel_map ~cancel ~skipped:(-1) p
      (fun i ->
        Cancel.set cancel;
        Atomic.incr ran;
        i)
      (Array.init n Fun.id)
  in
  let executed = Atomic.get ran in
  Alcotest.(check bool) "at least the canceller ran" true (executed >= 1);
  Alcotest.(check bool) "cancellation skipped the tail" true (executed < n);
  Array.iteri
    (fun i y ->
      if y <> i && y <> -1 then Alcotest.failf "slot %d holds %d" i y)
    ys;
  Alcotest.(check bool) "token observable after the call" true
    (Cancel.is_set cancel)

let test_cancel_deadline () =
  Alcotest.(check bool) "zero deadline already set" true
    (Cancel.is_set (Cancel.with_deadline ~seconds:0.));
  let far = Cancel.with_deadline ~seconds:3600. in
  Alcotest.(check bool) "distant deadline unset" false (Cancel.is_set far);
  Cancel.set far;
  Alcotest.(check bool) "can still be set early" true (Cancel.is_set far);
  (* A short deadline fires on the monotonic clock; poll with a bounded
     spin so a broken deadline fails the test instead of hanging it. *)
  let t = Cancel.with_deadline ~seconds:0.005 in
  let start = Lv_telemetry.Clock.now_ns () in
  let rec spin () =
    if Cancel.is_set t then ()
    else if
      Lv_telemetry.Clock.seconds_between ~start
        ~stop:(Lv_telemetry.Clock.now_ns ())
      > 2.
    then Alcotest.fail "deadline never fired"
    else spin ()
  in
  spin ();
  Alcotest.(check bool) "stays set (latch)" true (Cancel.is_set t);
  let rejects seconds =
    match Cancel.with_deadline ~seconds with
    | exception Invalid_argument _ -> ()
    | (_ : Cancel.t) -> Alcotest.failf "deadline %g accepted" seconds
  in
  rejects (-1.);
  rejects Float.nan;
  rejects Float.infinity

(* ------------------------------------------------------------------ *)
(* Telemetry / stats accounting                                        *)
(* ------------------------------------------------------------------ *)

let test_pool_stats_sum_to_task_count () =
  let sink = Lv_telemetry.Sink.memory () in
  let p = Pool.create ~telemetry:sink ~domains:3 () in
  let n = 200 in
  ignore (Pool.parallel_map p (fun x -> x) (Array.init n Fun.id));
  let s = Pool.stats p in
  Alcotest.(check int) "tasks counter" n s.Pool.tasks;
  Alcotest.(check int) "per-worker counts sum to the total" n
    (Array.fold_left ( + ) 0 s.Pool.worker_tasks);
  Alcotest.(check int) "one busy cell per worker" 3
    (Array.length s.Pool.busy_seconds);
  Array.iter
    (fun b ->
      Alcotest.(check bool) "busy time finite and nonnegative" true
        (Float.is_finite b && b >= 0.))
    s.Pool.busy_seconds;
  Alcotest.(check bool) "queue high-water positive" true
    (s.Pool.queue_high_water >= 1);
  Pool.shutdown p;
  (* Shutdown flushed the same numbers to the sink under fixed paths. *)
  let events = Lv_telemetry.Sink.events sink in
  let count path =
    List.find_map
      (fun ev ->
        if ev.Lv_telemetry.Event.path = path then
          match ev.Lv_telemetry.Event.kind with
          | Lv_telemetry.Event.Count v -> Some v
          | _ -> None
        else None)
      events
  in
  Alcotest.(check (option int)) "pool.tasks event" (Some n) (count "pool.tasks");
  Alcotest.(check bool) "pool.steals event present" true
    (count "pool.steals" <> None);
  Alcotest.(check bool) "pool.queue_hwm event present" true
    (count "pool.queue_hwm" <> None);
  let worker_spans =
    List.filter (fun ev -> ev.Lv_telemetry.Event.path = "pool.worker") events
  in
  Alcotest.(check int) "one pool.worker span per worker" 3
    (List.length worker_spans);
  let traced_tasks =
    List.fold_left
      (fun acc ev ->
        match Lv_telemetry.Event.field "tasks" ev with
        | Some j -> acc + Option.value (Lv_telemetry.Json.to_int j) ~default:0
        | None -> acc)
      0 worker_spans
  in
  Alcotest.(check int) "worker spans account for every task" n traced_tasks

(* ------------------------------------------------------------------ *)
(* End-to-end determinism: campaigns on pools of 1/2/4                 *)
(* ------------------------------------------------------------------ *)

let campaign_values pool =
  let c =
    Lv_multiwalk.Campaign.run ~ctx:(Lv_context.Context.make ~pool ())
      ~label:"queens-14" ~seed:100 ~runs:30
      (fun () -> Lv_problems.Queens.pack 14)
  in
  c.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values

let test_campaign_identical_on_pool_sizes () =
  (* The determinism contract of ISSUE record: same seed, pool sizes 1, 2
     and 4 ⇒ byte-identical datasets (per-run seeding + index-slotted
     results; scheduling affects nothing observable). *)
  let v1 = Pool.with_pool ~domains:1 campaign_values in
  let v2 = Pool.with_pool ~domains:2 campaign_values in
  let v4 = Pool.with_pool ~domains:4 campaign_values in
  Alcotest.(check bool) "pool 1 = pool 2" true (v1 = v2);
  Alcotest.(check bool) "pool 1 = pool 4" true (v1 = v4)

let () =
  Alcotest.run "lv_exec"
    [
      ( "deque",
        [
          Alcotest.test_case "owner LIFO, thief FIFO" `Quick test_deque_lifo_fifo;
          Alcotest.test_case "growth and high water" `Quick
            test_deque_growth_and_high_water;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_preserves_order;
          Alcotest.test_case "sizing and worker index" `Quick test_pool_sizing;
          Alcotest.test_case "exception barrier" `Quick test_pool_exception_barrier;
          Alcotest.test_case "nested map, pool of one" `Quick
            test_pool_nested_map_no_deadlock;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "pre-set token skips all" `Quick
            test_cancel_preset_skips_everything;
          Alcotest.test_case "token stops in-flight work" `Quick
            test_cancel_stops_in_flight_walkers;
          Alcotest.test_case "deadline token" `Quick test_cancel_deadline;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters sum to task count" `Quick
            test_pool_stats_sum_to_task_count;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "campaign identical on pools 1/2/4" `Quick
            test_campaign_identical_on_pool_sizes;
        ] );
    ]
