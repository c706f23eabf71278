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
  let ds = Lv_multiwalk.Dataset.load_csv path in
  Alcotest.(check int) "rows" 3 (Lv_multiwalk.Dataset.size ds);
  Alcotest.(check string) "label is the file name" (Filename.basename path)
    ds.Lv_multiwalk.Dataset.label;
  Alcotest.(check string) "metric unknown" "unknown" ds.Lv_multiwalk.Dataset.metric;
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
  List.iter
    (fun label ->
      let ds =
        Lv_multiwalk.Dataset.create ~censored:[| 50.; 60.25 |] ~label
          ~metric:"iterations" [| 1.; 2.; 3. |]
      in
      Alcotest.(check int) "censored count" 2 (Lv_multiwalk.Dataset.n_censored ds);
      Alcotest.(check (float 1e-12)) "censored fraction" 0.4
        (Lv_multiwalk.Dataset.censored_fraction ds);
      let path = tmp_file ".csv" in
      Lv_multiwalk.Dataset.save_csv ds path;
      let back = Lv_multiwalk.Dataset.load_csv path in
      Sys.remove path;
      Alcotest.(check string) "label" label back.Lv_multiwalk.Dataset.label;
      Alcotest.(check string) "metric" "iterations" back.Lv_multiwalk.Dataset.metric;
      Alcotest.(check bool) "solved values round-trip" true
        (back.Lv_multiwalk.Dataset.values = ds.Lv_multiwalk.Dataset.values);
      Alcotest.(check bool) "censored values round-trip" true
        (back.Lv_multiwalk.Dataset.censored = ds.Lv_multiwalk.Dataset.censored))
    (* A label may hold spaces, and even the text " metric=". *)
    [ "cap"; "my run"; "a metric=b" ]

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

let test_campaign_serial_on_caller () =
  (* Without a pool the runs execute one after another on the calling
     domain, and the dataset is the one a pool of 3 gives. *)
  let off_caller = Atomic.make 0 in
  let runner () =
    let packed = Lv_problems.Queens.pack 12 in
    fun rng ->
      if Lv_exec.Pool.worker_index () <> None then Atomic.incr off_caller;
      Lv_multiwalk.Run.once ~rng packed
  in
  let serial =
    Lv_multiwalk.Campaign.run_fn ~label:"s" ~seed:800 ~runs:20 runner
  in
  Alcotest.(check int) "every run on the calling domain" 0
    (Atomic.get off_caller);
  let pooled =
    on_pool 3 @@ fun ctx ->
    Lv_multiwalk.Campaign.run_fn ~ctx ~label:"s" ~seed:800 ~runs:20 runner
  in
  Alcotest.(check int) "pooled runs on workers" 20 (Atomic.get off_caller);
  let values c = c.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.values in
  Alcotest.(check (array (float 0.))) "identical dataset" (values serial)
    (values pooled)

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

exception Always_fails

let test_campaign_serial_exception_propagates () =
  (* Without a pool the runs execute in order on the calling domain, and
     the first run that raises aborts the campaign with its own exception:
     a run's walk depends only on its seed, so there is nothing to retry. *)
  let calls = ref 0 in
  match
    Lv_multiwalk.Campaign.run_fn ~label:"doomed" ~seed:1 ~runs:4
      (fun () _rng ->
        incr calls;
        raise Always_fails)
  with
  | _ -> Alcotest.fail "runner exception was swallowed"
  | exception Always_fails ->
    Alcotest.(check int) "the campaign stopped at the first run" 1 !calls

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
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Lv_multiwalk.Run.budget) -> Alcotest.fail "nonsense budget accepted"
  in
  rejects (fun () -> Lv_multiwalk.Run.budget ~max_seconds:(-1.) ());
  rejects (fun () -> Lv_multiwalk.Run.budget ~max_seconds:Float.nan ());
  rejects (fun () -> Lv_multiwalk.Run.budget ~max_seconds:Float.infinity ());
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

let test_budget_deadline_censors () =
  (* 20-Costas from this seed is unsolved after two million iterations, so
     a 5 ms deadline must end the run.  The iteration cap bounds the test
     if the deadline never fires: reaching it fails the test instead of
     hanging it. *)
  let cap = 100_000 in
  let budget = Lv_multiwalk.Run.budget ~max_seconds:0.005 ~max_iterations:cap () in
  let rng = Lv_stats.Rng.create ~seed:1 in
  let o = Lv_multiwalk.Run.once ~budget ~rng (Lv_problems.Costas.pack 20) in
  Alcotest.(check bool) "censored" false o.Lv_multiwalk.Run.solved;
  Alcotest.(check bool) "stopped by the deadline, not the cap" true
    (o.Lv_multiwalk.Run.iterations < cap);
  Alcotest.(check bool) "ran until the deadline" true
    (o.Lv_multiwalk.Run.seconds >= 0.005)

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
  (* The censored column holds the unsolved runs' iteration counts, in
     run order. *)
  let censored = c.Lv_multiwalk.Campaign.iterations.Lv_multiwalk.Dataset.censored in
  Alcotest.(check (array (float 0.))) "censored column in run order"
    (c.Lv_multiwalk.Campaign.observations
    |> List.filter_map (fun o ->
           if o.Lv_multiwalk.Run.solved then None
           else Some (float_of_int o.Lv_multiwalk.Run.iterations))
    |> Array.of_list)
    censored;
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
  let path = tmp_file ".log" in
  Sys.remove path;
  (* Campaigns treat a missing file as an empty checkpoint. *)
  path

(* The run-log format read literally from [checkpoint.mli], with an
   encoder, a check and a reader of the tests' own. *)
let header = "LVRUNLOG\001\000\000\000\000\000\000\000"
let record_size = 40

(* [n] whole records and their header. *)
let log_bytes n = String.length header + (n * record_size)

let reference_check r =
  let step h w = Int64.mul (Int64.logxor h w) 0x9E3779B97F4A7C15L in
  let words =
    [ String.get_int64_le r 0; String.get_int64_le r 8; String.get_int64_le r 16;
      String.get_int64_le r 24; Int64.of_int32 (String.get_int32_le r 32) ]
  in
  Int64.to_int (Int64.shift_right_logical (List.fold_left step 0x243F6A8885A308D3L words) 32)

let u32 r off = Int32.to_int (String.get_int32_le r off) land 0xFFFF_FFFF

let encode_record ?(flags = 0) (e : Lv_multiwalk.Checkpoint.entry) =
  let b = Bytes.create record_size in
  Bytes.set_int64_le b 0 (Int64.of_int e.run);
  Bytes.set_int64_le b 8 (Int64.of_int e.seed);
  Bytes.set_int64_le b 16 (Int64.of_int e.iterations);
  Bytes.set_int64_le b 24 (Int64.bits_of_float e.seconds);
  Bytes.set_int32_le b 32 (Int32.of_int (flags lor Bool.to_int e.solved));
  Bytes.set_int32_le b 36 (Int32.of_int (reference_check (Bytes.to_string b)));
  Bytes.to_string b

let encode entries = header ^ String.concat "" (List.map encode_record entries)

(* The log read a record at a time from a channel, with [Checkpoint]'s
   [Failure] texts. *)
let reference_load path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path @@ fun ic ->
    let fail fmt =
      Printf.ksprintf (fun m -> failwith ("Checkpoint: " ^ path ^ ": " ^ m)) fmt
    in
    let head = really_input_string ic (min (in_channel_length ic) 16) in
    if String.starts_with ~prefix:"{" head then
      fail
        "a JSON Lines run-log, written by an earlier version; this version \
         reads only binary run-logs";
    if not (String.starts_with ~prefix:head header) then
      if String.length head = 16 && String.sub head 0 8 = "LVRUNLOG" then
        fail "run-log version %Ld, expected 1" (String.get_int64_le head 8)
      else fail "not a run-log (bad magic)";
    let rec records i acc =
      match really_input_string ic record_size with
      | exception End_of_file -> List.rev acc
      | r ->
        if u32 r 36 <> reference_check r then fail "record %d fails its check" i;
        if u32 r 32 > 1 then fail "record %d has unknown flags" i;
        let int off = Int64.to_int (String.get_int64_le r off) in
        records (i + 1)
          ({ Lv_multiwalk.Checkpoint.run = int 0; seed = int 8; iterations = int 16;
             seconds = Int64.float_of_bits (String.get_int64_le r 24);
             solved = u32 r 32 = 1 }
          :: acc)
    in
    records 0 []

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

let write_entries path entries =
  Lv_multiwalk.Checkpoint.with_writer path (fun w ->
      List.iter (Lv_multiwalk.Checkpoint.append w) entries)

(* [text] with bit [bit] of byte [at] flipped. *)
let flip_bit text ~at ~bit =
  String.mapi
    (fun i c -> if i = at then Char.chr (Char.code c lxor (1 lsl bit)) else c)
    text

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
  write_entries path entries;
  Alcotest.(check string) "the layout of the interface" (encode entries)
    (read_file path);
  Alcotest.(check bool) "exact round-trip (float bits)" true
    (Lv_multiwalk.Checkpoint.load path = entries);
  (* A record torn by a crash mid-append is dropped, not fatal. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc (String.sub (encode_record (List.hd entries)) 0 13);
  close_out oc;
  Alcotest.(check bool) "torn final record dropped" true
    (Lv_multiwalk.Checkpoint.load path = entries);
  (* Corruption of a whole record is not a crash artifact, wherever it is. *)
  write_file path (flip_bit (encode entries) ~at:(log_bytes 1 + 20) ~bit:3);
  (match Lv_multiwalk.Checkpoint.load path with
  | _ -> Alcotest.fail "a damaged final record loaded"
  | exception Failure msg ->
    Alcotest.(check bool) "names the file and the record" true
      (contains msg path && contains msg "record 1"));
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
     truncate its run-log to the first 5 records), resume, and the resumed
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
  let first_5 = String.sub (read_file log) 0 (log_bytes 5) in
  List.iter
    (fun domains ->
      let log_d = tmp_log () in
      write_file log_d first_5;
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

let test_checkpoint_resume_after_torn_record () =
  (* A crash mid-append leaves a torn final record, and a crash as the log
     is created a torn header.  Resuming must append after what [load]
     keeps, so that the completed log loads whole and a second resume
     restores every run. *)
  let runs = 6 in
  let make () = Lv_problems.Queens.pack 12 in
  let log = tmp_log () in
  let clean =
    Lv_multiwalk.Campaign.run ~checkpoint:log ~label:"torn" ~seed:5 ~runs make
  in
  let reference = iterations_csv clean in
  let full = read_file log in
  List.iter
    (fun (what, cut, restored) ->
      let log_t = tmp_log () in
      write_file log_t (String.sub full 0 cut);
      let kept = Lv_multiwalk.Checkpoint.load log_t in
      Lv_multiwalk.Checkpoint.with_writer log_t (fun _ -> ());
      Alcotest.(check bool)
        (what ^ ": opening the writer keeps what load reads") true
        (Lv_multiwalk.Checkpoint.load log_t = kept);
      Alcotest.(check int) (what ^ ": and cuts the torn bytes")
        (log_bytes restored) (String.length (read_file log_t));
      let resumed =
        Lv_multiwalk.Campaign.run ~checkpoint:log_t ~label:"torn" ~seed:5 ~runs
          make
      in
      Alcotest.(check int) (Printf.sprintf "%s: restored %d" what restored)
        restored resumed.Lv_multiwalk.Campaign.n_restored;
      Alcotest.(check string) (what ^ ": byte-identical") reference
        (iterations_csv resumed);
      Alcotest.(check int) (what ^ ": the completed log loads whole") runs
        (List.length (Lv_multiwalk.Checkpoint.load log_t));
      let again =
        Lv_multiwalk.Campaign.run ~checkpoint:log_t ~label:"torn" ~seed:5 ~runs
          make
      in
      Alcotest.(check int) (what ^ ": second resume restores all") runs
        again.Lv_multiwalk.Campaign.n_restored;
      Alcotest.(check string) (what ^ ": still byte-identical") reference
        (iterations_csv again);
      Sys.remove log_t)
    [
      ("torn fourth record", log_bytes 3 + (record_size / 2), 3);
      ("one byte of the fourth record", log_bytes 3 + 1, 3);
      ("torn header", 7, 0);
      ("empty file", 0, 0);
    ];
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
  | exception Lv_multiwalk.Campaign.Unusable_checkpoint _ -> ());
  Sys.remove log

let test_checkpoint_complete_log_restores () =
  (* A log that holds every run is the whole campaign: nothing executes,
     so no instance is ever built, and the log is left as it was. *)
  let log = tmp_log () in
  let built = Atomic.make 0 in
  let make () =
    Atomic.incr built;
    Lv_problems.Queens.pack 12
  in
  let clean =
    Lv_multiwalk.Campaign.run ~checkpoint:log ~label:"ck" ~seed:600 ~runs:8 make
  in
  let bytes = read_file log in
  Atomic.set built 0;
  let again =
    on_pool 2 @@ fun ctx ->
    Lv_multiwalk.Campaign.run ~ctx ~checkpoint:log ~label:"ck" ~seed:600
      ~runs:8 make
  in
  Alcotest.(check int) "no instance built" 0 (Atomic.get built);
  Alcotest.(check int) "every run restored" 8
    again.Lv_multiwalk.Campaign.n_restored;
  Alcotest.(check string) "identical dataset" (iterations_csv clean)
    (iterations_csv again);
  Alcotest.(check string) "log untouched" bytes (read_file log);
  Sys.remove log

(* Restoring a complete 2000-run log allocates almost nothing per record:
   each record's fields go straight from the file's bytes into the
   columns. *)
let test_checkpoint_restore_allocation () =
  let runs = 2000 and seed = 900 in
  let path = tmp_log () in
  let rng = Lv_stats.Rng.create ~seed:5 in
  Lv_multiwalk.Checkpoint.with_writer path (fun w ->
      for r = 0 to runs - 1 do
        Lv_multiwalk.Checkpoint.append w
          { Lv_multiwalk.Checkpoint.run = r; seed = seed + r;
            iterations = Lv_stats.Rng.int rng 100_000;
            seconds = Lv_stats.Rng.float rng 2e-3; solved = r mod 7 <> 0 }
      done);
  let cols = Lv_multiwalk.Checkpoint.columns ~runs in
  let before = Gc.minor_words () in
  let foreign = Lv_multiwalk.Checkpoint.restore path ~seed cols in
  let words = Gc.minor_words () -. before in
  Sys.remove path;
  Alcotest.(check bool) "every run restored" true
    (foreign = None && Array.for_all Fun.id cols.restored);
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per record (under 0.1)"
       (words /. float_of_int runs))
    true
    (words < 0.1 *. float_of_int runs)

let test_checkpoint_unusable_raises_first () =
  (* A damaged log, one from another campaign or from an earlier version,
     and a path that is not a regular file are rejected before any run
     executes: no instance is built and nothing is touched. *)
  let built = Atomic.make 0 in
  let make () =
    Atomic.incr built;
    Lv_problems.Queens.pack 10
  in
  let entry =
    { Lv_multiwalk.Checkpoint.run = 0; seed = 700; iterations = 5; seconds = 0.5;
      solved = true }
  in
  let rejected what log ~names =
    match
      Lv_multiwalk.Campaign.run ~checkpoint:log ~label:"u" ~seed:700 ~runs:4 make
    with
    | _ -> Alcotest.failf "%s: log accepted" what
    | exception Lv_multiwalk.Campaign.Unusable_checkpoint msg ->
      Alcotest.(check bool) (what ^ ": message names the file") true
        (contains msg log);
      Alcotest.(check bool) (what ^ ": message names " ^ names) true
        (contains msg names);
      Alcotest.(check int) (what ^ ": no instance built") 0 (Atomic.get built)
  in
  List.iter
    (fun (what, text, names) ->
      let log = tmp_log () in
      write_file log text;
      rejected what log ~names;
      Alcotest.(check string) (what ^ ": log untouched") text (read_file log);
      Sys.remove log)
    [
      ("garbage header", "garbage\n" ^ encode [ entry ], "bad magic");
      ( "JSON Lines log",
        {|{"run":0,"seed":700,"iterations":5,"seconds":0.5,"solved":true}|} ^ "\n",
        "JSON Lines" );
      ( "damaged first record",
        flip_bit (encode [ entry; { entry with run = 1; seed = 701 } ])
          ~at:(log_bytes 0 + 17) ~bit:0,
        "record 0" );
      ("foreign seed", encode [ { entry with seed = 1 } ], "different campaign");
    ];
  let dir = tmp_log () in
  Unix.mkdir dir 0o700;
  rejected "a directory" dir ~names:"not a regular file";
  Unix.rmdir dir;
  (* A character device may never end; it is refused before it is read. *)
  if Sys.file_exists "/dev/null" then
    rejected "a device" "/dev/null" ~names:"not a regular file"

let test_checkpoint_decoder_strict () =
  let e =
    { Lv_multiwalk.Checkpoint.run = 3; seed = 103; iterations = 1; seconds = 0.5;
      solved = true }
  in
  let good = encode [ e; e ] in
  let fails what text ~names =
    match load_text text with
    | _ -> Alcotest.failf "%s: loaded" what
    | exception Failure msg ->
      Alcotest.(check bool) (what ^ ": names " ^ names) true (contains msg names)
  in
  Alcotest.(check int) "a header alone is an empty log" 0
    (List.length (load_text header));
  for cut = 0 to String.length header - 1 do
    Alcotest.(check int) (Printf.sprintf "header torn at %d: empty" cut) 0
      (List.length (load_text (String.sub header 0 cut)))
  done;
  for tail = 1 to record_size - 1 do
    Alcotest.(check int) (Printf.sprintf "torn tail of %d bytes dropped" tail) 2
      (List.length (load_text (good ^ String.sub good (log_bytes 0) tail)))
  done;
  (* Every one-bit change of a record fails its check, in every field and
     in the check itself. *)
  for bit = 0 to (8 * record_size) - 1 do
    let at = log_bytes 1 + (bit / 8) in
    fails (Printf.sprintf "bit %d of the last record" bit)
      (flip_bit good ~at ~bit:(bit mod 8)) ~names:"record 1 fails its check"
  done;
  for bit = 0 to (8 * String.length header) - 1 do
    fails (Printf.sprintf "bit %d of the header" bit)
      (flip_bit good ~at:(bit / 8) ~bit:(bit mod 8))
      ~names:(if bit < 64 then "bad magic" else "version")
  done;
  fails "unknown flags" (header ^ encode_record ~flags:2 e) ~names:"record 0 has unknown flags";
  fails "torn header of another file" "LVRUNLOX" ~names:"bad magic";
  fails "JSON Lines" {|{"run":3,"se|} ~names:"JSON Lines"

(* Random entries, with the values a float field can hold at its edges. *)
let entry_gen ?(run = QCheck.Gen.int) ?(seed = fun _ -> QCheck.Gen.int) () =
  let open QCheck.Gen in
  let any_int = frequency [ (4, int); (1, oneofl [ 0; max_int; min_int ]) ] in
  let seconds =
    frequency
      [
        ( 1,
          oneofl
            [ 0.; -0.; 4.9e-324; 2.2250738585072009e-308; 1e300; max_float; nan;
              infinity ] );
        (1, map (fun m -> Float.ldexp m (-1050)) (float_range 0.5 1.));
        (3, float_range 0. 10.);
        (1, map (fun x -> 1. /. x) (float_range 1. 1e9));
      ]
  in
  run >>= fun run ->
  map
    (fun (seed, iterations, seconds, solved) ->
      { Lv_multiwalk.Checkpoint.run; seed; iterations; seconds; solved })
    (quad (seed run) (frequency [ (3, int_range 0 1_000_000); (1, any_int) ]) seconds bool)

let print_entry (e : Lv_multiwalk.Checkpoint.entry) =
  Printf.sprintf "{run=%d; seed=%d; iterations=%d; seconds=%h; solved=%b}" e.run
    e.seed e.iterations e.seconds e.solved

(* A log as a crash or damage may leave it: records (some with unknown
   flags), then up to two flipped bits anywhere and a cut anywhere. *)
let damaged_log_gen entry =
  let open QCheck.Gen in
  let record =
    frequency
      [ (12, map encode_record entry); (1, map (encode_record ~flags:2) entry) ]
  in
  map
    (fun (records, flips, cut) ->
      let text = header ^ String.concat "" records in
      let text =
        List.fold_left
          (fun t (at, bit) -> flip_bit t ~at:(at mod String.length t) ~bit)
          text flips
      in
      match cut with
      | Some k -> String.sub text 0 (k mod (String.length text + 1))
      | None -> text)
    (triple
       (list_size (int_range 0 12) record)
       (frequency
          [ (4, return []); (1, list_size (int_range 1 2) (pair nat (int_range 0 7))) ])
       (opt nat))

let checkpoint_props =
  let open QCheck in
  [
    Test.make ~name:"checkpoint append/load round-trip, gets every bit back"
      ~count:200
      (make ~print:(Print.list print_entry)
         Gen.(list_size (int_range 1 20) (entry_gen ())))
      (fun entries ->
        let path = tmp_log () in
        write_entries path entries;
        let loaded = Lv_multiwalk.Checkpoint.load path in
        let text = read_file path in
        Sys.remove path;
        String.equal text (encode entries)
        && List.length loaded = List.length entries
        && List.for_all2 same_entry loaded entries);
    (* Random byte edits of a written log: whatever [load] accepts is what
       was written, byte for byte. *)
    Test.make ~name:"checkpoint decoder accepts only what its check vouches for"
      ~count:500
      (make
         ~print:(fun (entries, edits) ->
           Printf.sprintf "%s with edits %s"
             (Print.list print_entry entries)
             (Print.list (Print.pair Print.int Print.char) edits))
         Gen.(
           pair
             (list_size (int_range 1 8) (entry_gen ()))
             (list_size (int_range 1 3) (pair nat char))))
      (fun (entries, edits) ->
        let written = encode entries in
        let text =
          List.fold_left
            (fun t (at, c) ->
              let at = at mod String.length t in
              String.mapi (fun i x -> if i = at then c else x) t)
            written edits
        in
        match load_text text with
        | loaded -> String.equal (encode loaded) text && String.equal text written
        | exception Failure _ -> not (String.equal text written));
    Test.make
      ~name:"whole-file decoder agrees with the literal record-at-a-time reader"
      ~count:500
      (make ~print:(Printf.sprintf "%S") (damaged_log_gen (entry_gen ())))
      (fun text ->
        let path = tmp_log () in
        write_file path text;
        let outcome load =
          match load path with
          | entries -> Ok entries
          | exception Failure msg -> Error msg
        in
        let whole = outcome Lv_multiwalk.Checkpoint.load
        and reference = outcome reference_load in
        Sys.remove path;
        match (whole, reference) with
        | Ok a, Ok b -> List.length a = List.length b && List.for_all2 same_entry a b
        | Error a, Error b -> String.equal a b
        | _ -> false);
  ]

(* The column restore against the record-at-a-time reader, on logs as a
   resumed campaign may meet them: duplicates, runs outside the campaign,
   foreign seeds, damaged records anywhere and a torn tail.  Either all
   three fail with the same [Failure] text, or [load] gives the
   reference's entries and the columns hold each in-range run's last
   entry, with the first in-range foreign entry reported. *)
let restore_prop =
  let open QCheck in
  let runs = 8 and seed = 50 in
  let entry =
    entry_gen
      ~run:(Gen.int_range (-2) (runs + 1))
      ~seed:(fun run ->
        Gen.frequency [ (12, Gen.return (seed + run)); (1, Gen.return (seed + run + 1)) ])
      ()
  in
  Test.make ~name:"column restore agrees with the record-at-a-time reader"
    ~count:500
    (make ~print:(Printf.sprintf "%S") (damaged_log_gen entry))
    (fun text ->
      let path = tmp_log () in
      write_file path text;
      let outcome f = match f () with v -> Ok v | exception Failure msg -> Error msg in
      let reference = outcome (fun () -> reference_load path)
      and loaded = outcome (fun () -> Lv_multiwalk.Checkpoint.load path)
      and restored =
        outcome (fun () ->
            let cols = Lv_multiwalk.Checkpoint.columns ~runs in
            let foreign = Lv_multiwalk.Checkpoint.restore path ~seed cols in
            (cols, foreign))
      in
      Sys.remove path;
      match (reference, loaded, restored) with
      | Ok entries, Ok l, Ok ((cols : Lv_multiwalk.Checkpoint.columns), foreign) ->
        let in_range (e : Lv_multiwalk.Checkpoint.entry) = e.run >= 0 && e.run < runs in
        let last r =
          List.find_opt (fun (e : Lv_multiwalk.Checkpoint.entry) -> e.run = r)
            (List.rev entries)
        in
        List.length l = List.length entries
        && List.for_all2 same_entry l entries
        && foreign
           = Option.map
               (fun (e : Lv_multiwalk.Checkpoint.entry) -> (e.run, e.seed))
               (List.find_opt (fun e -> in_range e && e.seed <> seed + e.run) entries)
        && List.for_all
             (fun r ->
               match last r with
               | None -> not cols.restored.(r)
               | Some e ->
                 cols.restored.(r)
                 && cols.iterations.(r) = e.iterations
                 && Int64.equal
                      (Int64.bits_of_float cols.seconds.(r))
                      (Int64.bits_of_float e.seconds)
                 && cols.solved.(r) = e.solved)
             (List.init runs Fun.id)
      | Error a, Error b, Error c -> String.equal a b && String.equal a c
      | _ -> false)

(* A campaign resumed from every prefix of a complete log (written on two
   domains, so not in run order) returns what the uninterrupted campaign
   returned: the same runs, iterations dataset and censoring, with the
   seconds of every restored run as logged.  A run's iterations come from
   its seeded generator and its seconds from a counter, so a re-executed
   run gets new seconds.  Both datasets must equal the projection of the
   observations the earlier two-step assembly made. *)
let test_checkpoint_resume_any_prefix () =
  let runs = 24 and seed = 300 and label = "prefix" in
  let tick = Atomic.make 0 in
  let runner () rng =
    let iterations = 1 + Lv_stats.Rng.int rng 1000 in
    let t = Atomic.fetch_and_add tick 1 in
    { Lv_multiwalk.Run.iterations; seconds = float_of_int (t + 1) /. 7e3;
      solved = iterations mod 5 <> 0 }
  in
  let campaign ?ctx log =
    Lv_multiwalk.Campaign.run_fn ?ctx ~checkpoint:log ~label ~seed ~runs runner
  in
  let projected (c : Lv_multiwalk.Campaign.result) =
    let p metric = Lv_multiwalk.Dataset.of_observations ~label ~metric c.observations in
    c.iterations = p `Iterations && c.seconds = p `Seconds
  in
  let full_log = tmp_log () in
  let full = on_pool 2 (fun ctx -> campaign ~ctx full_log) in
  Alcotest.(check bool) "some runs censored" true (full.n_censored > 0);
  Alcotest.(check bool) "datasets are the projection" true (projected full);
  let text = read_file full_log in
  Alcotest.(check int) "complete log" (log_bytes runs) (String.length text);
  let order =
    List.map (fun (e : Lv_multiwalk.Checkpoint.entry) -> e.run)
      (Lv_multiwalk.Checkpoint.load full_log)
  in
  for k = 0 to runs do
    let log = tmp_log () in
    write_file log (String.sub text 0 (log_bytes k));
    let restored = List.filteri (fun i _ -> i < k) order in
    let resumed =
      if k mod 2 = 0 then campaign log else on_pool 2 (fun ctx -> campaign ~ctx log)
    in
    let what = Printf.sprintf "prefix %d" k in
    Alcotest.(check int) (what ^ ": n_restored") k resumed.n_restored;
    Alcotest.(check int) (what ^ ": n_censored") full.n_censored resumed.n_censored;
    Alcotest.(check bool) (what ^ ": iterations dataset") true
      (resumed.iterations = full.iterations);
    Alcotest.(check bool) (what ^ ": datasets are the projection") true (projected resumed);
    List.iteri
      (fun r ((a : Lv_multiwalk.Run.observation), (b : Lv_multiwalk.Run.observation)) ->
        Alcotest.(check bool) (Printf.sprintf "%s: run %d" what r) true
          (a.iterations = b.iterations && a.solved = b.solved
          && ((not (List.mem r restored)) || Float.equal a.seconds b.seconds)))
      (List.combine resumed.observations full.observations);
    (* The log is now complete: a rerun restores every run and returns the
       resumed result exactly. *)
    let again = campaign log in
    Alcotest.(check int) (what ^ ": rerun restores all") runs again.n_restored;
    Alcotest.(check bool) (what ^ ": rerun equals the resumed run") true
      (again.observations = resumed.observations
      && again.iterations = resumed.iterations
      && again.seconds = resumed.seconds
      && again.n_censored = resumed.n_censored);
    Sys.remove log
  done;
  let again = campaign full_log in
  Alcotest.(check bool) "the complete log restores the uninterrupted run" true
    (again.observations = full.observations && again.iterations = full.iterations
    && again.seconds = full.seconds && again.n_restored = runs);
  Sys.remove full_log

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

let test_sim_min_of_draws_bounds () =
  let rng = Lv_stats.Rng.create ~seed:17 in
  let emp = Lv_stats.Empirical.of_array [| 5.; 10.; 15.; 20. |] in
  for _ = 1 to 200 do
    let v = Lv_stats.Empirical.min_of_draws emp rng 3 in
    if v < 5. || v > 20. then Alcotest.failf "race value %g out of sample range" v
  done

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

let test_race_first_walker_wins_alone () =
  (* Walker 0 solves 8-queens, so on one worker (or none) it finishes
     before any other walker starts: it must be the winner, and the
     walkers after it must not run, so one instance is built in all. *)
  let check_race what ctx =
    let made = Atomic.make 0 in
    let o =
      Lv_multiwalk.Race.wall_clock ~ctx ~seed:5 ~walkers:4 (fun () ->
          Atomic.incr made;
          Lv_problems.Queens.pack 8)
    in
    Alcotest.(check (option int)) (what ^ ": walker 0 wins") (Some 0)
      o.Lv_multiwalk.Race.winner;
    Alcotest.(check bool) (what ^ ": solved") true o.Lv_multiwalk.Race.solved;
    Alcotest.(check int) (what ^ ": one instance built") 1 (Atomic.get made)
  in
  Lv_exec.Pool.with_pool ~domains:1 (fun pool ->
      check_race "pool of one" (Lv_context.Context.make ~pool ()));
  check_race "no pool" Lv_context.Context.default

let test_race_validation () =
  Alcotest.check_raises "zero walkers"
    (Invalid_argument "Race.wall_clock: walkers must be positive") (fun () ->
      ignore
        (Lv_multiwalk.Race.wall_clock ~seed:1 ~walkers:0 (fun () ->
             Lv_problems.Queens.pack 10)))

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
          Alcotest.test_case "serial on the calling domain" `Quick
            test_campaign_serial_on_caller;
          Alcotest.test_case "generic runner" `Quick test_campaign_run_fn_generic;
          Alcotest.test_case "worker exception propagates" `Quick
            test_campaign_worker_exception_propagates;
          Alcotest.test_case "serial runner exception propagates" `Quick
            test_campaign_serial_exception_propagates;
          Alcotest.test_case "argument validation" `Quick test_campaign_rejects_bad_args;
        ] );
      ( "budget",
        [
          Alcotest.test_case "validation" `Quick test_budget_validation;
          Alcotest.test_case "zero timeout censors" `Quick test_budget_timeout_zero_censors;
          Alcotest.test_case "deadline censors a run" `Quick test_budget_deadline_censors;
          Alcotest.test_case "iteration cap censors" `Quick test_budget_iteration_cap_censors;
          Alcotest.test_case "durations nonnegative" `Quick test_run_durations_nonnegative;
          Alcotest.test_case "campaign accounts censoring" `Quick
            test_campaign_budget_censoring_accounted;
          Alcotest.test_case "all censored rejected" `Quick test_campaign_all_censored_rejected;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "log round-trip" `Quick test_checkpoint_log_roundtrip;
          Alcotest.test_case "observation round-trip" `Quick
            test_checkpoint_observation_roundtrip;
          Alcotest.test_case "resume byte-identical" `Quick
            test_checkpoint_resume_byte_identical;
          Alcotest.test_case "resume after a torn final record" `Quick
            test_checkpoint_resume_after_torn_record;
          Alcotest.test_case "survives runner crash" `Quick
            test_checkpoint_survives_runner_crash;
          Alcotest.test_case "seed mismatch rejected" `Quick
            test_checkpoint_seed_mismatch_rejected;
          Alcotest.test_case "complete log restores without instances" `Quick
            test_checkpoint_complete_log_restores;
          Alcotest.test_case "unusable log raises before any run" `Quick
            test_checkpoint_unusable_raises_first;
          Alcotest.test_case "decoder strictness" `Quick
            test_checkpoint_decoder_strict;
          Alcotest.test_case "resume from any prefix" `Quick
            test_checkpoint_resume_any_prefix;
          Alcotest.test_case "restore allocation per record" `Quick
            test_checkpoint_restore_allocation;
        ]
        @ List.map QCheck_alcotest.to_alcotest (checkpoint_props @ [ restore_prop ]) );
      ( "sim",
        [
          Alcotest.test_case "one core" `Quick test_sim_speedup_one_core;
          Alcotest.test_case "monotone" `Quick test_sim_speedup_monotone;
          Alcotest.test_case "exponential linear" `Slow test_sim_exponential_near_linear;
          Alcotest.test_case "race bounds" `Quick test_sim_min_of_draws_bounds;
        ] );
      ( "race",
        [
          Alcotest.test_case "run once" `Quick test_run_once;
          Alcotest.test_case "iteration metric" `Quick test_race_iteration_metric;
          Alcotest.test_case "multi-walk gains" `Slow test_race_iteration_metric_beats_singles_on_average;
          Alcotest.test_case "wall clock" `Quick test_race_wall_clock;
          Alcotest.test_case "first walker wins alone" `Quick
            test_race_first_walker_wins_alone;
          Alcotest.test_case "validation" `Quick test_race_validation;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
