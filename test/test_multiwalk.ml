(* Tests for the multi-walk layer: dataset CSV round-trips, campaign
   determinism and domain-independence, the statistical simulator against
   closed forms, and the domain-based races. *)

let tmp_file suffix = Filename.temp_file "lv_test" suffix

(* ------------------------------------------------------------------ *)
(* Dataset                                                             *)
(* ------------------------------------------------------------------ *)

let test_dataset_create () =
  let ds = Lv_multiwalk.Dataset.create ~label:"x" ~metric:"iterations" [| 3.; 1.; 2. |] in
  Alcotest.(check int) "size" 3 (Lv_multiwalk.Dataset.size ds);
  let s = Lv_multiwalk.Dataset.summary ds in
  Alcotest.(check (float 1e-12)) "mean" 2. s.Lv_stats.Summary.mean;
  (* The stored values are a copy. *)
  let src = [| 5.; 6. |] in
  let ds = Lv_multiwalk.Dataset.create ~label:"y" ~metric:"m" src in
  src.(0) <- 99.;
  Alcotest.(check (float 1e-12)) "copied" 5. ds.Lv_multiwalk.Dataset.values.(0);
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Dataset.create: empty dataset") (fun () ->
      ignore (Lv_multiwalk.Dataset.create ~label:"z" ~metric:"m" [||]))

let test_dataset_csv_roundtrip () =
  let path = tmp_file ".csv" in
  let values = Array.init 100 (fun i -> float_of_int (i * i) +. 0.5) in
  let ds = Lv_multiwalk.Dataset.create ~label:"roundtrip" ~metric:"iterations" values in
  Lv_multiwalk.Dataset.save_csv ds path;
  let back = Lv_multiwalk.Dataset.load_csv path in
  Alcotest.(check string) "label" "roundtrip" back.Lv_multiwalk.Dataset.label;
  Alcotest.(check string) "metric" "iterations" back.Lv_multiwalk.Dataset.metric;
  Alcotest.(check int) "size" 100 (Lv_multiwalk.Dataset.size back);
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-12)) (Printf.sprintf "value %d" i) values.(i) v)
    back.Lv_multiwalk.Dataset.values;
  Sys.remove path

let test_dataset_load_plain_csv () =
  let path = tmp_file ".csv" in
  let oc = open_out path in
  output_string oc "value\n10.5\n20.5\n30.5\n";
  close_out oc;
  let ds = Lv_multiwalk.Dataset.load_csv ~label:"plain" ~metric:"seconds" path in
  Alcotest.(check int) "rows" 3 (Lv_multiwalk.Dataset.size ds);
  Alcotest.(check (float 1e-12)) "first" 10.5 ds.Lv_multiwalk.Dataset.values.(0);
  Sys.remove path

let test_dataset_of_observations_filters () =
  let obs =
    [
      { Lv_multiwalk.Run.seconds = 1.; iterations = 10; solved = true };
      { Lv_multiwalk.Run.seconds = 2.; iterations = 20; solved = false };
      { Lv_multiwalk.Run.seconds = 3.; iterations = 30; solved = true };
    ]
  in
  let ds = Lv_multiwalk.Dataset.of_observations ~label:"f" ~metric:`Iterations obs in
  Alcotest.(check int) "unsolved dropped" 2 (Lv_multiwalk.Dataset.size ds);
  Alcotest.(check (float 1e-12)) "kept order" 10. ds.Lv_multiwalk.Dataset.values.(0);
  let ds = Lv_multiwalk.Dataset.of_observations ~label:"f" ~metric:`Seconds obs in
  Alcotest.(check (float 1e-12)) "seconds metric" 3. ds.Lv_multiwalk.Dataset.values.(1)

let test_dataset_censored_csv_roundtrip () =
  let ds =
    Lv_multiwalk.Dataset.create ~censored:[| 50.; 60.25 |] ~label:"cap"
      ~metric:"iterations" [| 1.; 2.; 3. |]
  in
  Alcotest.(check int) "censored count" 2 (Lv_multiwalk.Dataset.n_censored ds);
  Alcotest.(check (float 1e-12)) "censored fraction" 0.4
    (Lv_multiwalk.Dataset.censored_fraction ds);
  let path = tmp_file ".csv" in
  Lv_multiwalk.Dataset.save_csv ds path;
  let back = Lv_multiwalk.Dataset.load_csv path in
  Sys.remove path;
  Alcotest.(check string) "label" "cap" back.Lv_multiwalk.Dataset.label;
  Alcotest.(check bool) "solved values round-trip" true
    (back.Lv_multiwalk.Dataset.values = ds.Lv_multiwalk.Dataset.values);
  Alcotest.(check bool) "censored values round-trip" true
    (back.Lv_multiwalk.Dataset.censored = ds.Lv_multiwalk.Dataset.censored)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_dataset_load_rejects_bad_rows () =
  (* Regression: malformed rows used to vanish silently, and nan/inf flowed
     straight into [Empirical.of_array]'s crash.  Now every bad row names
     its file and line. *)
  let expect_failure ~substr content =
    let path = tmp_file ".csv" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    (match Lv_multiwalk.Dataset.load_csv path with
    | _ -> Alcotest.failf "loaded malformed csv %S" content
    | exception Failure msg ->
      if not (contains msg substr) then
        Alcotest.failf "error %S does not mention %S" msg substr);
    Sys.remove path
  in
  expect_failure ~substr:":3:" "value\n1.0\nbogus\n";
  expect_failure ~substr:"NaN" "1.0\nnan\n";
  expect_failure ~substr:"infinite" "inf\n";
  expect_failure ~substr:"unknown status" "0,1.0,weird\n";
  (* Only one header row is skipped, and only before the first data row. *)
  expect_failure ~substr:":2:" "1.0\nstray-header\n";
  expect_failure ~substr:":2:" "header-one\nheader-two\n1.0\n";
  expect_failure ~substr:"fields" "1,2,3,4\n"

let test_dataset_synthetic () =
  let rng = Lv_stats.Rng.create ~seed:5 in
  let d = Lv_stats.Exponential.create ~rate:0.001 in
  let ds = Lv_multiwalk.Dataset.synthetic ~label:"synth" d ~rng 5000 in
  Alcotest.(check int) "size" 5000 (Lv_multiwalk.Dataset.size ds);
  let m = (Lv_multiwalk.Dataset.summary ds).Lv_stats.Summary.mean in
  if abs_float (m -. 1000.) > 60. then Alcotest.failf "synthetic mean %g vs 1000" m

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

(* [f ctx] with a context on a pool of [domains] workers, scoped to the
   call. *)
let on_pool ?telemetry domains f =
  Lv_exec.Pool.with_pool ~domains @@ fun pool ->
  f (Lv_context.Context.make ~pool ?telemetry ())

let queens_campaign ?(runs = 30) ?(domains = 1) () =
  on_pool domains @@ fun ctx ->
  Lv_multiwalk.Campaign.run ~ctx ~label:"queens-15" ~seed:100 ~runs (fun () ->
      Lv_problems.Queens.pack 15)

let test_campaign_basic () =
  let c = queens_campaign () in
  Alcotest.(check int) "all runs present" 30 (List.length c.Lv_multiwalk.Campaign.observations);
  Alcotest.(check int) "all solved" 0 c.Lv_multiwalk.Campaign.n_censored;
  Alcotest.(check int) "dataset size" 30
    (Lv_multiwalk.Dataset.size c.Lv_multiwalk.Campaign.iterations)

let test_campaign_deterministic () =
  let c1 = queens_campaign () and c2 = queens_campaign () in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "same iterations" a.Lv_multiwalk.Run.iterations
        b.Lv_multiwalk.Run.iterations)
    c1.Lv_multiwalk.Campaign.observations c2.Lv_multiwalk.Campaign.observations

let test_campaign_domain_count_invariant () =
  (* Seeding is per run index, so the iteration counts must not depend on
     the number of worker domains. *)
  let c1 = queens_campaign ~domains:1 () and c2 = queens_campaign ~domains:3 () in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "domain-invariant" a.Lv_multiwalk.Run.iterations
        b.Lv_multiwalk.Run.iterations)
    c1.Lv_multiwalk.Campaign.observations c2.Lv_multiwalk.Campaign.observations

let test_campaign_dataset_identical_across_domains () =
  (* The full determinism contract: same ~seed with 1 and 4 worker domains
     must yield the *identical* iterations dataset (values and order), and
     attaching a telemetry sink must not perturb the schedule.  The run
     events recorded by the sink describe exactly the observations. *)
  let sink = Lv_telemetry.Sink.memory () in
  let c1 = queens_campaign ~domains:1 () in
  let c4 =
    on_pool ~telemetry:sink 4 @@ fun ctx ->
    Lv_multiwalk.Campaign.run ~ctx ~label:"queens-15" ~seed:100 ~runs:30
      (fun () -> Lv_problems.Queens.pack 15)
  in
  Alcotest.(check bool) "identical iterations datasets" true
    (c1.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values
    = c4.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values);
  Alcotest.(check bool) "identical unsolved counts" true
    (c1.Lv_multiwalk.Campaign.n_censored = c4.Lv_multiwalk.Campaign.n_censored);
  let traced =
    List.filter
      (fun ev -> ev.Lv_telemetry.Event.path = "campaign.run")
      (Lv_telemetry.Sink.events sink)
    |> List.filter_map (fun ev ->
           match
             ( Lv_telemetry.Event.field "run" ev,
               Lv_telemetry.Event.field "iterations" ev )
           with
           | Some r, Some i ->
             Some
               ( Option.get (Lv_telemetry.Json.to_int r),
                 Option.get (Lv_telemetry.Json.to_int i) )
           | _ -> None)
    |> List.sort compare
  in
  Alcotest.(check int) "one trace event per run" 30 (List.length traced);
  List.iteri
    (fun r obs ->
      Alcotest.(check int)
        (Printf.sprintf "traced iterations of run %d" r)
        obs.Lv_multiwalk.Run.iterations
        (List.assoc r traced))
    c4.Lv_multiwalk.Campaign.observations

let test_campaign_progress_called () =
  let count = Atomic.make 0 in
  let _ =
    Lv_multiwalk.Campaign.run ~label:"p" ~seed:1 ~runs:10
      ~progress:(fun _ -> Atomic.incr count)
      (fun () -> Lv_problems.Queens.pack 10)
  in
  Alcotest.(check int) "progress per run" 10 (Atomic.get count)

let test_campaign_run_fn_generic () =
  (* run_fn drives any Las Vegas algorithm: here a synthetic geometric-like
     runtime built directly from the generator. *)
  let c =
    Lv_multiwalk.Campaign.run_fn ~label:"generic" ~seed:7 ~runs:50 (fun () rng ->
        let iterations = 1 + Lv_stats.Rng.int rng 100 in
        { Lv_multiwalk.Run.seconds = 0.; iterations; solved = true })
  in
  Alcotest.(check int) "runs" 50 (Lv_multiwalk.Dataset.size c.Lv_multiwalk.Campaign.iterations);
  Alcotest.(check int) "all solved" 0 c.Lv_multiwalk.Campaign.n_censored;
  (* Same seeding contract as the CSP campaign: per-run seeds. *)
  let c2 =
    Lv_multiwalk.Campaign.run_fn ~label:"generic" ~seed:7 ~runs:50 (fun () rng ->
        let iterations = 1 + Lv_stats.Rng.int rng 100 in
        { Lv_multiwalk.Run.seconds = 0.; iterations; solved = true })
  in
  Alcotest.(check bool) "deterministic" true
    (c.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values
    = c2.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values)

exception Runner_failed of int

let test_campaign_worker_exception_propagates () =
  (* A throwing runner must surface its own exception from [run] — not the
     old behaviour of leaving domains unjoined and dying on [assert false]
     over the unclaimed result slots.  The pool's barrier joins every
     in-flight run first, so the campaign can also be re-run afterwards. *)
  let calls = Atomic.make 0 in
  let campaign ~boom () =
    on_pool 3 @@ fun ctx ->
    Lv_multiwalk.Campaign.run_fn ~ctx ~label:"boom" ~seed:1 ~runs:24
      (fun () rng ->
        let n = Atomic.fetch_and_add calls 1 in
        if boom && n = 5 then raise (Runner_failed 42);
        let iterations = 1 + Lv_stats.Rng.int rng 100 in
        { Lv_multiwalk.Run.seconds = 0.; iterations; solved = true })
  in
  (match campaign ~boom:true () with
  | _ -> Alcotest.fail "runner exception was swallowed"
  | exception Runner_failed n ->
    Alcotest.(check int) "the runner's own exception" 42 n);
  (* No leaked domains / poisoned state: an identical campaign without the
     failure completes normally. *)
  let c = campaign ~boom:false () in
  Alcotest.(check int) "clean re-run" 24
    (List.length c.Lv_multiwalk.Campaign.observations)

let test_campaign_rejects_bad_args () =
  Alcotest.check_raises "zero runs" (Invalid_argument "Campaign.run: runs must be positive")
    (fun () ->
      ignore
        (Lv_multiwalk.Campaign.run ~label:"x" ~seed:1 ~runs:0 (fun () ->
             Lv_problems.Queens.pack 10)))

(* ------------------------------------------------------------------ *)
(* Run budgets / censoring                                             *)
(* ------------------------------------------------------------------ *)

let test_budget_validation () =
  Alcotest.(check bool) "default is unlimited" true
    (Lv_multiwalk.Run.is_unlimited (Lv_multiwalk.Run.budget ()));
  Alcotest.(check bool) "a cap is not unlimited" false
    (Lv_multiwalk.Run.is_unlimited (Lv_multiwalk.Run.budget ~max_iterations:1 ()));
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Lv_multiwalk.Run.budget) -> Alcotest.fail "nonsense budget accepted"
  in
  rejects (fun () -> Lv_multiwalk.Run.budget ~max_seconds:(-1.) ());
  rejects (fun () -> Lv_multiwalk.Run.budget ~max_seconds:Float.nan ());
  rejects (fun () -> Lv_multiwalk.Run.budget ~max_iterations:0 ())

let test_budget_timeout_zero_censors () =
  (* The solver polls its stop hook at iteration 0, so an already-expired
     deadline censors deterministically before any work happens. *)
  let rng = Lv_stats.Rng.create ~seed:3 in
  let budget = Lv_multiwalk.Run.budget ~max_seconds:0. () in
  let o = Lv_multiwalk.Run.once ~budget ~rng (Lv_problems.Queens.pack 15) in
  Alcotest.(check bool) "censored" false o.Lv_multiwalk.Run.solved;
  Alcotest.(check int) "stopped before iterating" 0 o.Lv_multiwalk.Run.iterations;
  Alcotest.(check bool) "duration still nonnegative" true
    (o.Lv_multiwalk.Run.seconds >= 0.)

let test_budget_iteration_cap_censors () =
  (* 20-queens does not solve in 2 iterations: the run must come back as a
     right-censored observation at exactly the cap. *)
  let budget = Lv_multiwalk.Run.budget ~max_iterations:2 () in
  let rng = Lv_stats.Rng.create ~seed:100 in
  let o = Lv_multiwalk.Run.once ~budget ~rng (Lv_problems.Queens.pack 20) in
  Alcotest.(check bool) "censored" false o.Lv_multiwalk.Run.solved;
  Alcotest.(check int) "ran to the cap" 2 o.Lv_multiwalk.Run.iterations

let test_run_durations_nonnegative () =
  (* Regression: durations come from the monotonic clock now; with
     [Unix.gettimeofday] an NTP step could make them negative. *)
  let rng = Lv_stats.Rng.create ~seed:77 in
  let packed = Lv_problems.Queens.pack 12 in
  for i = 1 to 50 do
    let o = Lv_multiwalk.Run.once ~rng packed in
    if o.Lv_multiwalk.Run.seconds < 0. then
      Alcotest.failf "run %d took %g seconds" i o.Lv_multiwalk.Run.seconds
  done

let test_campaign_budget_censoring_accounted () =
  (* Under a tight iteration cap some 15-queens runs solve and some are
     censored; every run must be accounted for — in the result, in the
     datasets and in the telemetry counter — not silently dropped. *)
  let sink = Lv_telemetry.Sink.memory () in
  let budget = Lv_multiwalk.Run.budget ~max_iterations:10 () in
  let runs = 10 in
  let c =
    Lv_multiwalk.Campaign.run ~ctx:(Lv_context.Context.make ~telemetry:sink ())
      ~budget ~label:"q15-capped" ~seed:100 ~runs (fun () ->
        Lv_problems.Queens.pack 15)
  in
  let n_solved = Lv_multiwalk.Dataset.size c.Lv_multiwalk.Campaign.iterations in
  let n_censored = c.Lv_multiwalk.Campaign.n_censored in
  Alcotest.(check bool) "some runs censored" true (n_censored > 0);
  Alcotest.(check bool) "some runs solved" true (n_solved > 0);
  Alcotest.(check int) "every run accounted for" runs (n_solved + n_censored);
  Alcotest.(check int) "iterations dataset carries the censored runs" n_censored
    (Lv_multiwalk.Dataset.n_censored c.Lv_multiwalk.Campaign.iterations);
  Alcotest.(check int) "seconds dataset carries the censored runs" n_censored
    (Lv_multiwalk.Dataset.n_censored c.Lv_multiwalk.Campaign.seconds);
  let censored = Lv_multiwalk.Campaign.censored_iterations c in
  Alcotest.(check int) "censored_iterations length" n_censored
    (Array.length censored);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "censored at most at the cap" true (v <= 10.))
    censored;
  let counter =
    List.find_map
      (fun ev ->
        if ev.Lv_telemetry.Event.path = "campaign.censored" then
          match ev.Lv_telemetry.Event.kind with
          | Lv_telemetry.Event.Count n -> Some n
          | _ -> None
        else None)
      (Lv_telemetry.Sink.events sink)
  in
  Alcotest.(check (option int)) "telemetry counter agrees" (Some n_censored)
    counter

let test_campaign_all_censored_rejected () =
  (* A budget nobody can meet leaves no solved run to fit: the campaign
     refuses rather than returning an empty dataset. *)
  match
    Lv_multiwalk.Campaign.run
      ~budget:(Lv_multiwalk.Run.budget ~max_seconds:0. ())
      ~label:"hopeless" ~seed:1 ~runs:3
      (fun () -> Lv_problems.Queens.pack 15)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "all-censored campaign returned a dataset"

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let fast_retry ~max_attempts =
  Lv_multiwalk.Retry.policy ~base_delay_s:1e-4 ~max_attempts ()

let test_retry_transient_failure_recovers () =
  let attempts = ref 0 in
  let notified = ref [] in
  let v =
    Lv_multiwalk.Retry.with_retries
      ~on_retry:(fun ~attempt _exn -> notified := attempt :: !notified)
      (fast_retry ~max_attempts:3)
      (fun () ->
        incr attempts;
        if !attempts < 3 then failwith "transient";
        42)
  in
  Alcotest.(check int) "first success returned" 42 v;
  Alcotest.(check int) "tried thrice" 3 !attempts;
  Alcotest.(check (list int)) "on_retry after attempts 1 and 2" [ 2; 1 ]
    !notified

exception Always_fails

let test_retry_exhaustion_reraises () =
  let attempts = ref 0 in
  (match
     Lv_multiwalk.Retry.with_retries (fast_retry ~max_attempts:2) (fun () ->
         incr attempts;
         raise Always_fails)
   with
  | _ -> Alcotest.fail "exhausted retries did not re-raise"
  | exception Always_fails -> ());
  Alcotest.(check int) "stopped at max_attempts" 2 !attempts

let test_retry_fatal_not_retried () =
  let attempts = ref 0 in
  (match
     Lv_multiwalk.Retry.with_retries (fast_retry ~max_attempts:5) (fun () ->
         incr attempts;
         raise Out_of_memory)
   with
  | _ -> Alcotest.fail "Out_of_memory swallowed"
  | exception Out_of_memory -> ());
  Alcotest.(check int) "fatal exceptions are not transient" 1 !attempts

let test_retry_backoff_schedule () =
  let p =
    Lv_multiwalk.Retry.policy ~base_delay_s:0.01 ~multiplier:2. ~max_delay_s:0.05
      ~max_attempts:10 ()
  in
  Alcotest.(check (float 1e-12)) "first retry" 0.01
    (Lv_multiwalk.Retry.delay_for p ~attempt:1);
  Alcotest.(check (float 1e-12)) "doubles" 0.02
    (Lv_multiwalk.Retry.delay_for p ~attempt:2);
  Alcotest.(check (float 1e-12)) "doubles again" 0.04
    (Lv_multiwalk.Retry.delay_for p ~attempt:3);
  Alcotest.(check (float 1e-12)) "hits the ceiling" 0.05
    (Lv_multiwalk.Retry.delay_for p ~attempt:4);
  Alcotest.(check (float 1e-12)) "stays at the ceiling" 0.05
    (Lv_multiwalk.Retry.delay_for p ~attempt:8);
  match Lv_multiwalk.Retry.policy ~max_attempts:0 () with
  | exception Invalid_argument _ -> ()
  | (_ : Lv_multiwalk.Retry.policy) -> Alcotest.fail "zero attempts accepted"

let test_campaign_retry_preserves_dataset () =
  (* A run that fails transiently on its first attempt is retried; because
     each attempt recreates the generator from [seed + run], the retried
     campaign's dataset is *identical* to a fault-free one. *)
  let campaign ~faulty () =
    let calls = Atomic.make 0 in
    on_pool 3 @@ fun ctx ->
    Lv_multiwalk.Campaign.run_fn ~ctx ~retry:(fast_retry ~max_attempts:3)
      ~label:"retry" ~seed:11 ~runs:20
      (fun () rng ->
        if faulty && Atomic.fetch_and_add calls 1 = 5 then failwith "transient";
        let iterations = 1 + Lv_stats.Rng.int rng 1000 in
        { Lv_multiwalk.Run.seconds = 0.; iterations; solved = true })
  in
  let clean = campaign ~faulty:false () in
  let faulted = campaign ~faulty:true () in
  Alcotest.(check int) "no retries in the clean campaign" 0
    clean.Lv_multiwalk.Campaign.n_retried;
  Alcotest.(check int) "exactly one run was retried" 1
    faulted.Lv_multiwalk.Campaign.n_retried;
  Alcotest.(check bool) "retries are invisible in the dataset" true
    (clean.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values
    = faulted.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values)

exception Injected_fault

let test_campaign_injected_faults_retried_away () =
  (* Fault injection lives in the test, as a runner wrapper: each attempt
     of each run faults with probability 0.2, decided by a seeded hash of
     (run, attempt).  The fault strikes after the solve, once the attempt
     has consumed its randomness.  Under 5 retries every run recovers, and
     because each attempt replays the run's generator from [seed + run]
     the dataset equals the clean campaign's on any pool size. *)
  let runs = 200 and seed = 7 in
  let make () = Lv_problems.All_interval.pack 14 in
  let clean =
    Lv_multiwalk.Campaign.run ~label:"ai-14" ~seed ~runs make
  in
  let faulty () =
    let packed = make () in
    (* One runner per pool worker, and a run's retries stay on the worker
       that started it, so this table is never shared between domains. *)
    let attempts = Hashtbl.create 64 in
    fun rng ->
      (* The run's identity, read from a copy so the walk is unperturbed. *)
      let run = Lv_stats.Rng.bits64 (Lv_stats.Rng.copy rng) in
      let attempt = Option.value (Hashtbl.find_opt attempts run) ~default:0 in
      Hashtbl.replace attempts run (attempt + 1);
      let obs = Lv_multiwalk.Run.once ~rng packed in
      if Hashtbl.seeded_hash 0x5eed (run, attempt) mod 1000 < 200 then
        raise Injected_fault;
      obs
  in
  List.iter
    (fun domains ->
      let faulted =
        on_pool domains @@ fun ctx ->
        Lv_multiwalk.Campaign.run_fn ~ctx ~retry:(fast_retry ~max_attempts:6)
          ~label:"ai-14" ~seed ~runs faulty
      in
      Alcotest.(check bool)
        (Printf.sprintf "faults were injected on %d domains" domains)
        true
        (faulted.Lv_multiwalk.Campaign.n_retried > 0);
      Alcotest.(check bool)
        (Printf.sprintf "dataset unperturbed on %d domains" domains)
        true
        (clean.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values
        = faulted.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values))
    [ 1; 4 ]

let test_campaign_retry_exhaustion_propagates () =
  (* A persistent failure must surface even under a retry policy. *)
  match
    Lv_multiwalk.Campaign.run_fn ~retry:(fast_retry ~max_attempts:2)
      ~label:"doomed" ~seed:1 ~runs:4
      (fun () _rng -> raise Always_fails)
  with
  | _ -> Alcotest.fail "persistent failure swallowed by retries"
  | exception Always_fails -> ()

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let tmp_log () =
  let path = tmp_file ".jsonl" in
  Sys.remove path;
  (* Campaigns treat a missing file as an empty checkpoint. *)
  path

let test_checkpoint_log_roundtrip () =
  let path = tmp_log () in
  Alcotest.(check int) "missing file is an empty checkpoint" 0
    (List.length (Lv_multiwalk.Checkpoint.load path));
  let entries =
    [
      { Lv_multiwalk.Checkpoint.run = 0; seed = 100; iterations = 42;
        seconds = 0.0071; solved = true };
      { Lv_multiwalk.Checkpoint.run = 1; seed = 101; iterations = 7;
        seconds = 1. /. 3.; solved = false };
    ]
  in
  Lv_multiwalk.Checkpoint.with_writer path (fun w ->
      List.iter (Lv_multiwalk.Checkpoint.append w) entries);
  Alcotest.(check bool) "exact round-trip (17-digit floats)" true
    (Lv_multiwalk.Checkpoint.load path = entries);
  (* A line torn by a crash mid-append is dropped, not fatal. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"run\":2,\"se";
  close_out oc;
  Alcotest.(check bool) "torn final line dropped" true
    (Lv_multiwalk.Checkpoint.load path = entries);
  (* Corruption anywhere *before* the end is not a crash artifact. *)
  let lines = read_file path in
  write_file path (lines ^ "\n{\"run\":3,\"seed\":103,\"iterations\":1,\"seconds\":0,\"solved\":true}\n");
  (match Lv_multiwalk.Checkpoint.load path with
  | _ -> Alcotest.fail "mid-file corruption loaded"
  | exception Failure msg ->
    Alcotest.(check bool) "names the file" true
      (String.length msg > 0 && Option.is_some (String.index_opt msg ':')));
  Sys.remove path

let test_checkpoint_observation_roundtrip () =
  let o = { Lv_multiwalk.Run.seconds = 0.125; iterations = 99; solved = false } in
  let e = Lv_multiwalk.Checkpoint.entry_of_observation ~run:4 ~seed:104 o in
  Alcotest.(check int) "run" 4 e.Lv_multiwalk.Checkpoint.run;
  Alcotest.(check int) "seed" 104 e.Lv_multiwalk.Checkpoint.seed;
  Alcotest.(check bool) "observation round-trip" true
    (Lv_multiwalk.Checkpoint.observation_of_entry e = o)

let iterations_csv c =
  let path = tmp_file ".csv" in
  Lv_multiwalk.Dataset.save_csv c.Lv_multiwalk.Campaign.iterations path;
  let s = read_file path in
  Sys.remove path;
  s

let test_checkpoint_resume_byte_identical () =
  (* The headline guarantee: kill a checkpointed campaign mid-flight (here:
     truncate its run-log to the first 5 entries), resume, and the resumed
     iterations dataset is byte-for-byte the uninterrupted one — at pool
     sizes 1 and 4. *)
  let runs = 12 in
  let make () = Lv_problems.Queens.pack 12 in
  let log = tmp_log () in
  let clean =
    Lv_multiwalk.Campaign.run ~checkpoint:log ~label:"ck" ~seed:400 ~runs make
  in
  Alcotest.(check int) "nothing restored on a fresh log" 0
    clean.Lv_multiwalk.Campaign.n_restored;
  let reference = iterations_csv clean in
  let full_log = read_file log in
  let first_5 =
    String.split_on_char '\n' full_log
    |> List.filteri (fun i _ -> i < 5)
    |> String.concat "\n"
  in
  List.iter
    (fun domains ->
      let log_d = tmp_log () in
      write_file log_d (first_5 ^ "\n");
      let resumed =
        on_pool domains @@ fun ctx ->
        Lv_multiwalk.Campaign.run ~ctx ~checkpoint:log_d ~label:"ck" ~seed:400
          ~runs make
      in
      Alcotest.(check int)
        (Printf.sprintf "restored 5 of %d on %d domains" runs domains)
        5 resumed.Lv_multiwalk.Campaign.n_restored;
      Alcotest.(check string)
        (Printf.sprintf "byte-identical on %d domains" domains)
        reference (iterations_csv resumed);
      (* The resumed campaign completed the log: resuming again restores
         everything and opens no writer. *)
      let again =
        Lv_multiwalk.Campaign.run ~checkpoint:log_d ~label:"ck" ~seed:400 ~runs
          make
      in
      Alcotest.(check int) "second resume restores all" runs
        again.Lv_multiwalk.Campaign.n_restored;
      Alcotest.(check string) "still byte-identical" reference
        (iterations_csv again);
      Sys.remove log_d)
    [ 1; 4 ];
  Sys.remove log

let test_checkpoint_survives_runner_crash () =
  (* The abort path: a runner crash aborts the campaign through the pool's
     barrier, but the runs completed before (and joined during) the abort
     were already flushed to the log — resuming finishes the rest and the
     dataset equals the fault-free one. *)
  let runs = 16 in
  let runner ~boom calls () rng =
    if boom && Atomic.fetch_and_add calls 1 = 5 then raise Always_fails;
    let iterations = 1 + Lv_stats.Rng.int rng 1000 in
    { Lv_multiwalk.Run.seconds = 0.; iterations; solved = true }
  in
  let clean =
    Lv_multiwalk.Campaign.run_fn ~label:"crash" ~seed:900 ~runs
      (runner ~boom:false (Atomic.make 0))
  in
  let log = tmp_log () in
  (match
     on_pool 2 @@ fun ctx ->
     Lv_multiwalk.Campaign.run_fn ~ctx ~checkpoint:log ~label:"crash"
       ~seed:900 ~runs
       (runner ~boom:true (Atomic.make 0))
   with
  | _ -> Alcotest.fail "crash swallowed"
  | exception Always_fails -> ());
  let saved = List.length (Lv_multiwalk.Checkpoint.load log) in
  Alcotest.(check bool) "completed runs survived the crash" true (saved > 0);
  Alcotest.(check bool) "the crashed run did not" true (saved < runs);
  let resumed =
    on_pool 2 @@ fun ctx ->
    Lv_multiwalk.Campaign.run_fn ~ctx ~checkpoint:log ~label:"crash"
      ~seed:900 ~runs
      (runner ~boom:false (Atomic.make 0))
  in
  Alcotest.(check int) "every logged run restored" saved
    resumed.Lv_multiwalk.Campaign.n_restored;
  Alcotest.(check bool) "dataset equals the fault-free campaign" true
    (clean.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values
    = resumed.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values);
  Sys.remove log

let test_checkpoint_seed_mismatch_rejected () =
  let log = tmp_log () in
  let make () = Lv_problems.Queens.pack 10 in
  let _ =
    Lv_multiwalk.Campaign.run ~checkpoint:log ~label:"a" ~seed:500 ~runs:4 make
  in
  (match
     Lv_multiwalk.Campaign.run ~checkpoint:log ~label:"a" ~seed:501 ~runs:4 make
   with
  | _ -> Alcotest.fail "foreign checkpoint silently mixed in"
  | exception Invalid_argument _ -> ());
  Sys.remove log

(* The generic decode the checkpoint used before its direct line decoder:
   a [Json.t] tree, then field lookup.  Kept as the reference that every
   line the direct decoder accepts must agree with. *)
let generic_decode line =
  let open Lv_telemetry in
  match Json.of_string line with
  | exception Json.Parse_error _ -> None
  | j -> (
    let get name conv = Option.bind (Json.member name j) conv in
    match
      ( get "run" Json.to_int,
        get "seed" Json.to_int,
        get "iterations" Json.to_int,
        get "seconds" Json.to_float,
        get "solved" Json.to_bool )
    with
    | Some run, Some seed, Some iterations, Some seconds, Some solved ->
      Some { Lv_multiwalk.Checkpoint.run; seed; iterations; seconds; solved }
    | _ -> None)

let same_entry (a : Lv_multiwalk.Checkpoint.entry)
    (b : Lv_multiwalk.Checkpoint.entry) =
  a.run = b.run && a.seed = b.seed && a.iterations = b.iterations
  && Int64.equal (Int64.bits_of_float a.seconds) (Int64.bits_of_float b.seconds)
  && a.solved = b.solved

let load_text text =
  let path = tmp_log () in
  write_file path text;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Lv_multiwalk.Checkpoint.load path)

(* The direct decoder on one line: a lone line that does not decode is a
   torn final line, which [load] drops. *)
let direct_decode line =
  match load_text (line ^ "\n") with
  | [ e ] -> Some e
  | [] -> None
  | _ -> Alcotest.fail "one line decoded to several entries"

let lines_of_entries entries =
  let path = tmp_log () in
  Lv_multiwalk.Checkpoint.with_writer path (fun w ->
      List.iter (Lv_multiwalk.Checkpoint.append w) entries);
  let text = read_file path in
  Sys.remove path;
  List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

let good_line =
  {|{"run":3,"seed":103,"iterations":1,"seconds":0.5,"solved":true}|}

let test_checkpoint_decoder_strict () =
  (match direct_decode {|{"run":3,"seed":103,"iterations":1,"seconds":0,"solved":true}|} with
  | Some e ->
    Alcotest.(check bool) "int-shaped seconds read as 0." true
      (Int64.equal (Int64.bits_of_float e.seconds) 0L)
  | None -> Alcotest.fail {|"seconds":0 rejected|});
  Alcotest.(check int) "empty lines skipped" 2
    (List.length (load_text (good_line ^ "\n\n" ^ good_line ^ "\n")));
  List.iter
    (fun (what, bad) ->
      Alcotest.(check int) (what ^ ": dropped as a torn last line") 1
        (List.length (load_text (good_line ^ "\n" ^ bad ^ "\n")));
      match load_text (good_line ^ "\n" ^ bad ^ "\n" ^ good_line ^ "\n") with
      | _ -> Alcotest.failf "%s: bad line 2 loaded" what
      | exception Failure msg ->
        Alcotest.(check bool) (what ^ ": names line 2") true
          (contains msg ":2: "))
    [
      ("null seconds", {|{"run":3,"seed":103,"iterations":1,"seconds":null,"solved":true}|});
      ("null run", {|{"run":null,"seed":103,"iterations":1,"seconds":0.5,"solved":true}|});
      ("reordered keys", {|{"seed":103,"run":3,"iterations":1,"seconds":0.5,"solved":true}|});
      ("trailing garbage", good_line ^ "x");
      ("trailing space", good_line ^ " ");
      ("space after colon", {|{"run": 3,"seed":103,"iterations":1,"seconds":0.5,"solved":true}|});
      ("leading plus", {|{"run":+3,"seed":103,"iterations":1,"seconds":0.5,"solved":true}|});
      ("float run", {|{"run":3.0,"seed":103,"iterations":1,"seconds":0.5,"solved":true}|});
      ("int overflow", {|{"run":3,"seed":103,"iterations":4611686018427387904,"seconds":0.5,"solved":true}|});
      ("missing field", {|{"run":3,"seed":103,"iterations":1,"seconds":0.5}|});
      ("extra field", {|{"run":3,"seed":103,"iterations":1,"seconds":0.5,"solved":true,"x":1}|});
      ("torn", {|{"run":3,"se|});
    ]

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_speedup_one_core () =
  let ds = Lv_multiwalk.Dataset.create ~label:"s" ~metric:"m" [| 10.; 20.; 30. |] in
  match Lv_multiwalk.Sim.table ds ~cores:[ 1 ] with
  | [ r ] ->
    Alcotest.(check (float 1e-9)) "speedup 1 on 1 core" 1. r.Lv_multiwalk.Sim.speedup
  | _ -> Alcotest.fail "one row expected"

let test_sim_speedup_monotone () =
  let rng = Lv_stats.Rng.create ~seed:9 in
  let d = Lv_stats.Exponential.create ~rate:1e-4 in
  let ds = Lv_multiwalk.Dataset.synthetic ~label:"exp" d ~rng 800 in
  let rows = Lv_multiwalk.Sim.table ds ~cores:[ 1; 2; 4; 8; 16; 32 ] in
  let rec check prev = function
    | [] -> ()
    | r :: rest ->
      if r.Lv_multiwalk.Sim.speedup < prev -. 1e-9 then
        Alcotest.failf "speedup decreased at %d cores" r.Lv_multiwalk.Sim.cores;
      check r.Lv_multiwalk.Sim.speedup rest
  in
  check 0. rows

let test_sim_exponential_near_linear () =
  (* For a non-shifted exponential pool the multi-walk speed-up is ~n (the
     plug-in estimator saturates at high n because the sample minimum is
     finite, so check moderate n on a large pool). *)
  let rng = Lv_stats.Rng.create ~seed:13 in
  let d = Lv_stats.Exponential.create ~rate:1e-5 in
  let ds = Lv_multiwalk.Dataset.synthetic ~label:"exp" d ~rng 20_000 in
  let rows = Lv_multiwalk.Sim.table ds ~cores:[ 2; 4; 8 ] in
  List.iter
    (fun r ->
      let expected = float_of_int r.Lv_multiwalk.Sim.cores in
      if abs_float (r.Lv_multiwalk.Sim.speedup -. expected) /. expected > 0.12 then
        Alcotest.failf "exp speedup on %d cores: %g" r.Lv_multiwalk.Sim.cores
          r.Lv_multiwalk.Sim.speedup)
    rows

let test_sim_race_once_bounds () =
  let rng = Lv_stats.Rng.create ~seed:17 in
  let emp = Lv_stats.Empirical.of_array [| 5.; 10.; 15.; 20. |] in
  for _ = 1 to 200 do
    let v = Lv_multiwalk.Sim.race_once emp ~rng ~cores:3 in
    if v < 5. || v > 20. then Alcotest.failf "race value %g out of sample range" v
  done

let test_sim_speedup_mc_brackets_exact () =
  let rng = Lv_stats.Rng.create ~seed:19 in
  let d = Lv_stats.Exponential.create ~rate:0.01 in
  let ds = Lv_multiwalk.Dataset.synthetic ~label:"exp" d ~rng 1_000 in
  let exact = (List.hd (Lv_multiwalk.Sim.table ds ~cores:[ 8 ])).Lv_multiwalk.Sim.speedup in
  let emp = Lv_multiwalk.Dataset.empirical ds in
  let iv = Lv_multiwalk.Sim.speedup_mc ~replicates:3000 emp ~rng ~cores:8 in
  Alcotest.(check bool) "MC interval brackets exact" true
    (iv.Lv_stats.Bootstrap.lo <= exact && exact <= iv.Lv_stats.Bootstrap.hi
    || abs_float (iv.Lv_stats.Bootstrap.estimate -. exact) /. exact < 0.1)

(* ------------------------------------------------------------------ *)
(* Run / Race                                                          *)
(* ------------------------------------------------------------------ *)

let test_run_once () =
  let rng = Lv_stats.Rng.create ~seed:21 in
  let o = Lv_multiwalk.Run.once ~rng (Lv_problems.Queens.pack 15) in
  Alcotest.(check bool) "solved" true o.Lv_multiwalk.Run.solved;
  Alcotest.(check bool) "iterations positive" true (o.Lv_multiwalk.Run.iterations > 0);
  Alcotest.(check bool) "time nonnegative" true (o.Lv_multiwalk.Run.seconds >= 0.)

let test_race_iteration_metric () =
  let o =
    Lv_multiwalk.Race.iteration_metric ~seed:23 ~walkers:6 (fun () ->
        Lv_problems.Queens.pack 15)
  in
  Alcotest.(check bool) "solved" true o.Lv_multiwalk.Race.solved;
  Alcotest.(check bool) "winner set" true (o.Lv_multiwalk.Race.winner <> None);
  (* The race minimum equals the minimum over the individual runs with the
     same seeds. *)
  let mins =
    List.init 6 (fun w ->
        let rng = Lv_stats.Rng.create ~seed:(23 + w) in
        (Lv_multiwalk.Run.once ~rng (Lv_problems.Queens.pack 15)).Lv_multiwalk.Run.iterations)
  in
  Alcotest.(check int) "min of singles" (List.fold_left Int.min max_int mins)
    o.Lv_multiwalk.Race.min_iterations

let test_race_iteration_metric_beats_singles_on_average () =
  (* Multi-walk effect: the mean over seeds of min-of-4 is well below the
     mean single runtime. *)
  let single = ref 0. and raced = ref 0. in
  let reps = 15 in
  for r = 0 to reps - 1 do
    let seed = 500 + (r * 10) in
    let rng = Lv_stats.Rng.create ~seed in
    single :=
      !single
      +. float_of_int
           (Lv_multiwalk.Run.once ~rng (Lv_problems.Queens.pack 20)).Lv_multiwalk.Run.iterations;
    let o =
      Lv_multiwalk.Race.iteration_metric ~seed:(seed + 1) ~walkers:4 (fun () ->
          Lv_problems.Queens.pack 20)
    in
    raced := !raced +. float_of_int o.Lv_multiwalk.Race.min_iterations
  done;
  Alcotest.(check bool) "multi-walk gains" true (!raced < !single)

let test_race_wall_clock () =
  let o =
    Lv_multiwalk.Race.wall_clock ~seed:29 ~walkers:2 (fun () ->
        Lv_problems.Queens.pack 15)
  in
  Alcotest.(check bool) "solved" true o.Lv_multiwalk.Race.solved;
  (match o.Lv_multiwalk.Race.winner with
  | Some w -> Alcotest.(check bool) "winner in range" true (w >= 0 && w < 2)
  | None -> Alcotest.fail "no winner");
  Alcotest.(check bool) "winner iterations positive" true (o.Lv_multiwalk.Race.min_iterations > 0)

let test_race_validation () =
  Alcotest.check_raises "zero walkers"
    (Invalid_argument "Race.wall_clock: walkers must be positive") (fun () ->
      ignore
        (Lv_multiwalk.Race.wall_clock ~seed:1 ~walkers:0 (fun () ->
             Lv_problems.Queens.pack 10)))

(* The line-by-line [Checkpoint.load] that the whole-file decoder
   replaced, kept verbatim (bar names) as the reference: every file must
   give the same entries or the same [Failure] text under both. *)
module Line_by_line = struct
  open Lv_multiwalk.Checkpoint

  exception Malformed of string

  type cursor = { line : string; mutable pos : int }

  let malformed at what =
    raise (Malformed (Printf.sprintf "expected %s at offset %d" what at))

  let rec matches_from line pos lit j =
    j = String.length lit
    || String.unsafe_get line (pos + j) = String.unsafe_get lit j
       && matches_from line pos lit (j + 1)

  let looking_at c lit =
    c.pos + String.length lit <= String.length c.line
    && matches_from c.line c.pos lit 0

  let literal c lit =
    if looking_at c lit then c.pos <- c.pos + String.length lit
    else malformed c.pos lit

  let number_token c =
    let n = String.length c.line and start = c.pos in
    (match if start < n then c.line.[start] else ' ' with
    | '-' | '0' .. '9' -> ()
    | _ -> malformed start "a number");
    while
      c.pos < n
      &&
      match String.unsafe_get c.line c.pos with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      c.pos <- c.pos + 1
    done;
    String.sub c.line start (c.pos - start)

  let int_of_token tok =
    if String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') tok then None
    else int_of_string_opt tok

  let int_field c key =
    literal c key;
    let start = c.pos in
    match int_of_token (number_token c) with
    | Some i -> i
    | None -> malformed start "an integer"

  let float_field c key =
    literal c key;
    let start = c.pos in
    let tok = number_token c in
    match int_of_token tok with
    | Some i -> float_of_int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> f
      | None -> malformed start "a number")

  let bool_field c key =
    literal c key;
    if looking_at c "true" then (c.pos <- c.pos + 4; true)
    else if looking_at c "false" then (c.pos <- c.pos + 5; false)
    else malformed c.pos "true or false"

  let of_line line =
    let c = { line; pos = 0 } in
    let run = int_field c "{\"run\":" in
    let seed = int_field c ",\"seed\":" in
    let iterations = int_field c ",\"iterations\":" in
    let seconds = float_field c ",\"seconds\":" in
    let solved = bool_field c ",\"solved\":" in
    literal c "}";
    if c.pos <> String.length line then malformed c.pos "end of line";
    { run; seed; iterations; seconds; solved }

  let load path =
    match open_in path with
    | exception Sys_error _ -> []
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec loop lineno entries torn =
            match input_line ic with
            | exception End_of_file -> List.rev entries
            | "" -> loop (lineno + 1) entries torn
            | line -> (
              (match torn with
              | Some (n, msg) ->
                failwith (Printf.sprintf "Checkpoint.load: %s:%d: %s" path n msg)
              | None -> ());
              match of_line line with
              | e -> loop (lineno + 1) (e :: entries) None
              | exception Malformed msg ->
                loop (lineno + 1) entries (Some (lineno, msg)))
          in
          loop 1 [] None)
end

(* Delete ([op = 0]), insert ([1]) or overwrite ([2]) one character. *)
let edit_line line (op, at, ch) =
  let n = String.length line in
  match op with
  | 0 when n > 0 ->
    let at = at mod n in
    String.sub line 0 at ^ String.sub line (at + 1) (n - at - 1)
  | 1 ->
    let at = at mod (n + 1) in
    String.sub line 0 at ^ String.make 1 ch ^ String.sub line at (n - at)
  | _ when n > 0 ->
    let at = at mod n in
    String.mapi (fun i c -> if i = at then ch else c) line
  | _ -> line

let checkpoint_props =
  let open QCheck in
  let entry_gen =
    let open Gen in
    let any_int = frequency [ (4, int); (1, oneofl [ 0; max_int; min_int ]) ] in
    let seconds =
      frequency
        [
          (1, oneofl [ 0.; -0.; 4.9e-324; 2.2250738585072009e-308; 1e300; max_float ]);
          (1, map (fun m -> Float.ldexp m (-1050)) (float_range 0.5 1.));
          (3, float_range 0. 10.);
          (1, map (fun x -> 1. /. x) (float_range 1. 1e9));
        ]
    in
    map
      (fun (run, seed, iterations, seconds, solved) ->
        { Lv_multiwalk.Checkpoint.run; seed; iterations; seconds; solved })
      (tup5 any_int any_int
         (frequency [ (3, int_range 0 1_000_000); (1, any_int) ])
         seconds bool)
  in
  let print_entry (e : Lv_multiwalk.Checkpoint.entry) =
    Printf.sprintf "{run=%d; seed=%d; iterations=%d; seconds=%h; solved=%b}"
      e.run e.seed e.iterations e.seconds e.solved
  in
  [
    Test.make ~name:"checkpoint append/load round-trip, generic decode agrees"
      ~count:200
      (make ~print:(Print.list print_entry) Gen.(list_size (int_range 1 20) entry_gen))
      (fun entries ->
        let path = tmp_log () in
        Lv_multiwalk.Checkpoint.with_writer path (fun w ->
            List.iter (Lv_multiwalk.Checkpoint.append w) entries);
        let loaded = Lv_multiwalk.Checkpoint.load path in
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))
        in
        Sys.remove path;
        List.length loaded = List.length entries
        && List.for_all2 same_entry loaded entries
        && List.for_all2
             (fun line e ->
               match generic_decode line with
               | Some g -> same_entry g e
               | None -> false)
             lines loaded);
    (* Random edits of written lines: whatever the direct decoder accepts,
       the generic decode accepts with the same entry. *)
    Test.make ~name:"checkpoint decoder accepts only what generic decode agrees on"
      ~count:500
      (make
         ~print:(fun (e, edits) ->
           Printf.sprintf "%s with %d edits" (print_entry e) (List.length edits))
         Gen.(
           pair entry_gen
             (list_size (int_range 1 3)
                (triple (int_range 0 2) nat
                   (oneofl (String.to_seq {|{}":,.-+eE0123456789 tfalsnu|} |> List.of_seq))))))
      (fun (e, edits) ->
        let line =
          List.fold_left
            (fun line (op, at, ch) ->
              let n = String.length line in
              match op with
              | 0 when n > 0 ->
                let at = at mod n in
                String.sub line 0 at ^ String.sub line (at + 1) (n - at - 1)
              | 1 ->
                let at = at mod (n + 1) in
                String.sub line 0 at ^ String.make 1 ch ^ String.sub line at (n - at)
              | _ when n > 0 ->
                let at = at mod n in
                String.mapi (fun i c -> if i = at then ch else c) line
              | _ -> line)
            (List.hd (lines_of_entries [ e ]))
            edits
        in
        match direct_decode line with
        | None -> true
        | Some d -> (
          match generic_decode line with Some g -> same_entry d g | None -> false));
    (* Whole files mixing valid, empty, corrupt and CRLF-terminated lines,
       with or without a trailing newline, possibly torn anywhere. *)
    Test.make ~name:"whole-file decoder agrees with the line-by-line load"
      ~count:500
      (make
         ~print:(fun (lines, trailing, tear) ->
           Printf.sprintf "%S trailing=%b tear=%s" (String.concat "\n" lines) trailing
             (match tear with Some k -> string_of_int k | None -> "none"))
         Gen.(
           let edit =
             triple (int_range 0 2) nat
               (oneofl (String.to_seq ({|{}":,.-+eE0123456789 tfalsnu|} ^ "\r") |> List.of_seq))
           in
           let line =
             frequency
               [
                 (6, map (fun e -> List.hd (lines_of_entries [ e ])) entry_gen);
                 (1, return "");
                 (1, map (fun e -> List.hd (lines_of_entries [ e ]) ^ "\r") entry_gen);
                 ( 2,
                   map2
                     (fun e edits ->
                       List.fold_left edit_line (List.hd (lines_of_entries [ e ])) edits)
                     entry_gen
                     (list_size (int_range 1 3) edit) );
               ]
           in
           triple (list_size (int_range 0 12) line) bool (opt nat)))
      (fun (lines, trailing, tear) ->
        let text = String.concat "\n" lines ^ if trailing then "\n" else "" in
        let text =
          match tear with
          | Some k -> String.sub text 0 (k mod (String.length text + 1))
          | None -> text
        in
        let path = tmp_log () in
        write_file path text;
        let outcome load =
          match load path with
          | entries -> Ok entries
          | exception Failure msg -> Error msg
        in
        let whole = outcome Lv_multiwalk.Checkpoint.load
        and reference = outcome Line_by_line.load in
        Sys.remove path;
        match (whole, reference) with
        | Ok a, Ok b -> List.length a = List.length b && List.for_all2 same_entry a b
        | Error a, Error b -> String.equal a b
        | _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"sim speedup >= 1 on any pool" ~count:100
      (list_of_size (Gen.int_range 2 50) (float_range 1. 1e6))
      (fun xs ->
        let ds =
          Lv_multiwalk.Dataset.create ~label:"q" ~metric:"m" (Array.of_list xs)
        in
        match Lv_multiwalk.Sim.table ds ~cores:[ 4 ] with
        | [ r ] -> r.Lv_multiwalk.Sim.speedup >= 1. -. 1e-9
        | _ -> false);
    Test.make ~name:"csv round-trip preserves values" ~count:25
      (list_of_size (Gen.int_range 1 60) (float_range 0. 1e9))
      (fun xs ->
        let path = tmp_file ".csv" in
        let arr = Array.of_list xs in
        let ds = Lv_multiwalk.Dataset.create ~label:"rt" ~metric:"m" arr in
        Lv_multiwalk.Dataset.save_csv ds path;
        let back = Lv_multiwalk.Dataset.load_csv path in
        Sys.remove path;
        back.Lv_multiwalk.Dataset.values = arr);
  ]

let () =
  Alcotest.run "lv_multiwalk"
    [
      ( "dataset",
        [
          Alcotest.test_case "create" `Quick test_dataset_create;
          Alcotest.test_case "csv round-trip" `Quick test_dataset_csv_roundtrip;
          Alcotest.test_case "plain csv" `Quick test_dataset_load_plain_csv;
          Alcotest.test_case "observations filter" `Quick test_dataset_of_observations_filters;
          Alcotest.test_case "censored csv round-trip" `Quick test_dataset_censored_csv_roundtrip;
          Alcotest.test_case "malformed csv rejected" `Quick test_dataset_load_rejects_bad_rows;
          Alcotest.test_case "synthetic" `Quick test_dataset_synthetic;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "basic" `Quick test_campaign_basic;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "domain invariance" `Quick test_campaign_domain_count_invariant;
          Alcotest.test_case "dataset identical across domains" `Quick
            test_campaign_dataset_identical_across_domains;
          Alcotest.test_case "progress hook" `Quick test_campaign_progress_called;
          Alcotest.test_case "generic runner" `Quick test_campaign_run_fn_generic;
          Alcotest.test_case "worker exception propagates" `Quick
            test_campaign_worker_exception_propagates;
          Alcotest.test_case "argument validation" `Quick test_campaign_rejects_bad_args;
        ] );
      ( "budget",
        [
          Alcotest.test_case "validation" `Quick test_budget_validation;
          Alcotest.test_case "zero timeout censors" `Quick test_budget_timeout_zero_censors;
          Alcotest.test_case "iteration cap censors" `Quick test_budget_iteration_cap_censors;
          Alcotest.test_case "durations nonnegative" `Quick test_run_durations_nonnegative;
          Alcotest.test_case "campaign accounts censoring" `Quick
            test_campaign_budget_censoring_accounted;
          Alcotest.test_case "all censored rejected" `Quick test_campaign_all_censored_rejected;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient failure recovers" `Quick
            test_retry_transient_failure_recovers;
          Alcotest.test_case "exhaustion re-raises" `Quick test_retry_exhaustion_reraises;
          Alcotest.test_case "fatal not retried" `Quick test_retry_fatal_not_retried;
          Alcotest.test_case "backoff schedule" `Quick test_retry_backoff_schedule;
          Alcotest.test_case "campaign dataset unperturbed" `Quick
            test_campaign_retry_preserves_dataset;
          Alcotest.test_case "campaign exhaustion propagates" `Quick
            test_campaign_retry_exhaustion_propagates;
          Alcotest.test_case "campaign injected faults retried away" `Quick
            test_campaign_injected_faults_retried_away;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "log round-trip" `Quick test_checkpoint_log_roundtrip;
          Alcotest.test_case "observation round-trip" `Quick
            test_checkpoint_observation_roundtrip;
          Alcotest.test_case "resume byte-identical" `Quick
            test_checkpoint_resume_byte_identical;
          Alcotest.test_case "survives runner crash" `Quick
            test_checkpoint_survives_runner_crash;
          Alcotest.test_case "seed mismatch rejected" `Quick
            test_checkpoint_seed_mismatch_rejected;
          Alcotest.test_case "decoder strictness" `Quick
            test_checkpoint_decoder_strict;
        ]
        @ List.map QCheck_alcotest.to_alcotest checkpoint_props );
      ( "sim",
        [
          Alcotest.test_case "one core" `Quick test_sim_speedup_one_core;
          Alcotest.test_case "monotone" `Quick test_sim_speedup_monotone;
          Alcotest.test_case "exponential linear" `Slow test_sim_exponential_near_linear;
          Alcotest.test_case "race bounds" `Quick test_sim_race_once_bounds;
          Alcotest.test_case "MC brackets exact" `Slow test_sim_speedup_mc_brackets_exact;
        ] );
      ( "race",
        [
          Alcotest.test_case "run once" `Quick test_run_once;
          Alcotest.test_case "iteration metric" `Quick test_race_iteration_metric;
          Alcotest.test_case "multi-walk gains" `Slow test_race_iteration_metric_beats_singles_on_average;
          Alcotest.test_case "wall clock" `Quick test_race_wall_clock;
          Alcotest.test_case "validation" `Quick test_race_validation;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
