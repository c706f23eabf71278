(* Tests for the lib/exec executor: the pool's contracts — deterministic
   result ordering, several callers sharing one pool, the exception
   barrier, nested calls run inline, telemetry accounting — and the end-to-end determinism guarantee campaigns rely
   on. *)

module Pool = Lv_exec.Pool

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

let test_pool_shared_by_two_callers () =
  (* Two domains map on one pool at the same time: each call's barrier
     and result slots are its own, and the pool counts every task once. *)
  Pool.with_pool ~domains:2 @@ fun p ->
  let n = 500 in
  let call offset () =
    Pool.parallel_map p (fun x -> x + offset) (Array.init n Fun.id)
  in
  let other = Domain.spawn (call 1_000_000) in
  let mine = call 0 () in
  let theirs = Domain.join other in
  Array.iteri
    (fun i y -> if y <> i then Alcotest.failf "caller 1: slot %d holds %d" i y)
    mine;
  Array.iteri
    (fun i y ->
      if y <> i + 1_000_000 then
        Alcotest.failf "caller 2: slot %d holds %d" i y)
    theirs;
  Alcotest.(check int) "every task counted once" (2 * n) (Pool.stats p).Pool.tasks

let test_pool_nested_map_no_deadlock () =
  (* A task that itself maps on the same pool runs the inner batch inline
     instead of blocking — even on a pool of one — with the same
     exception rules as an outer call. *)
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
    ys;
  (* An inner raise surfaces as the outer call's exception... *)
  (match
     Pool.parallel_map p
       (fun i ->
         Pool.parallel_map p
           (fun j -> if i = 2 && j = 1 then raise (Task_failed j) else j)
           (Array.init 3 Fun.id))
       (Array.init 4 Fun.id)
   with
  | _ -> Alcotest.fail "inner exception was swallowed"
  | exception Task_failed 1 -> ());
  (* ...and the pool stays usable afterwards. *)
  Alcotest.(check (array int)) "pool alive after an inner raise"
    [| 1; 2; 3 |]
    (Pool.parallel_map p succ [| 0; 1; 2 |])

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
  Alcotest.(check bool) "no pool.steals event" true
    (count "pool.steals" = None);
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
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_preserves_order;
          Alcotest.test_case "sizing and worker index" `Quick test_pool_sizing;
          Alcotest.test_case "two callers share a pool" `Quick
            test_pool_shared_by_two_callers;
          Alcotest.test_case "exception barrier" `Quick test_pool_exception_barrier;
          Alcotest.test_case "nested map, pool of one" `Quick
            test_pool_nested_map_no_deadlock;
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
