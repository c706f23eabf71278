(* Tests for the telemetry subsystem: JSON codec, span nesting,
   sink behaviour (null/memory/jsonl/tee), report aggregation, and the
   integration with Campaign's per-run events. *)

open Lv_telemetry

let tmp_file suffix = Filename.temp_file "lv_telemetry" suffix

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let json = Alcotest.testable (Fmt.of_to_string Json.to_string) ( = )

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Float 0.25;
      Json.Float 1e-9;
      Json.Float (-3.5e300);
      Json.String "";
      Json.String "hello \"world\"\n\t\\";
      Json.String "unicode: \xc3\xa9\xe2\x82\xac";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.check json
        (Printf.sprintf "round-trip %s" (Json.to_string v))
        v
        (Json.of_string (Json.to_string v)))
    samples

let test_json_float_int_distinction () =
  (* Integral floats must stay floats on the wire, or re-aggregated
     durations would change type. *)
  (match Json.of_string (Json.to_string (Json.Float 2.)) with
  | Json.Float f -> Alcotest.(check (float 0.)) "float stays float" 2. f
  | v -> Alcotest.failf "expected Float, got %s" (Json.to_string v));
  match Json.of_string "7" with
  | Json.Int 7 -> ()
  | v -> Alcotest.failf "expected Int 7, got %s" (Json.to_string v)

let test_json_nonfinite_floats () =
  Alcotest.(check string) "nan encodes null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf encodes null" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "nul" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | v ->
        Alcotest.failf "parse of %S should fail, got %s" s (Json.to_string v))
    bad

let test_json_escapes () =
  (match Json.of_string {|"aéb"|} with
  | Json.String s -> Alcotest.(check string) "\\u escape" "a\xc3\xa9b" s
  | _ -> Alcotest.fail "expected string");
  Alcotest.check json "whitespace tolerated"
    (Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Int 2 ]) ])
    (Json.of_string " { \"k\" : [ 1 , 2 ] } ")

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let test_event_json_roundtrip () =
  let ev =
    Event.make ~ts:1.25 ~path:"campaign/campaign.run" (Event.Span 0.0625)
      ~fields:[ ("run", Json.Int 3); ("solved", Json.Bool true) ]
  in
  let back = Event.of_json (Json.of_string (Json.to_string (Event.to_json ev))) in
  Alcotest.(check string) "path" ev.Event.path back.Event.path;
  Alcotest.(check (float 0.)) "ts" ev.Event.ts back.Event.ts;
  Alcotest.(check (option (float 0.))) "duration" (Some 0.0625) (Event.duration back);
  Alcotest.(check (option bool)) "solved field" (Some true)
    (Option.bind (Event.field "solved" back) Json.to_bool);
  Alcotest.(check string) "name is last segment" "campaign.run" (Event.name back)

(* ------------------------------------------------------------------ *)
(* Spans and nesting                                                   *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_paths () =
  let sink = Sink.memory () in
  let result =
    Span.run sink ~name:"outer" (fun () ->
        Alcotest.(check string) "inside outer" "outer" (Span.current_path ());
        let x =
          Span.run sink ~name:"inner" (fun () ->
              Alcotest.(check string) "inside inner" "outer/inner"
                (Span.current_path ());
              41)
        in
        x + 1)
  in
  Alcotest.(check int) "value through" 42 result;
  Alcotest.(check string) "stack unwound" "" (Span.current_path ());
  match Sink.events sink with
  | [ inner; outer ] ->
    (* Inner completes (and so is recorded) first. *)
    Alcotest.(check string) "inner path" "outer/inner" inner.Event.path;
    Alcotest.(check string) "outer path" "outer" outer.Event.path;
    let d ev = Option.get (Event.duration ev) in
    Alcotest.(check bool) "inner within outer" true (d inner <= d outer);
    Alcotest.(check bool) "timestamps ordered" true
      (inner.Event.ts <= outer.Event.ts)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_exception_tagged () =
  let sink = Sink.memory () in
  (try Span.run sink ~name:"boom" (fun () -> failwith "no") with Failure _ -> ());
  Alcotest.(check string) "stack unwound after raise" "" (Span.current_path ());
  match Sink.events sink with
  | [ ev ] ->
    Alcotest.(check (option bool)) "error field" (Some true)
      (Option.bind (Event.field "error" ev) Json.to_bool)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_fields_thunk_sees_result () =
  let sink = Sink.memory () in
  let cell = ref 0 in
  Span.run sink ~name:"s"
    ~fields:(fun () -> [ ("result", Json.Int !cell) ])
    (fun () -> cell := 7);
  match Sink.events sink with
  | [ ev ] ->
    Alcotest.(check (option int)) "field read after body" (Some 7)
      (Option.bind (Event.field "result" ev) Json.to_int)
  | _ -> Alcotest.fail "one event expected"

let test_span_record_fixed_path () =
  (* Span.record emits a pre-resolved-path span whose duration is the time
     since [start] — the building block for worker-side and engine-stage
     timing.  The path is taken verbatim, never from the nesting stack. *)
  let sink = Sink.memory () in
  let start = Clock.now_ns () in
  Span.run sink ~name:"outer" (fun () ->
      Span.record sink ~start ~path:"fit/fit.candidate"
        ~fields:[ ("candidate", Json.String "exponential") ]
        ());
  match Sink.events sink with
  | [ recorded; outer ] ->
    Alcotest.(check string) "fixed path, not nesting path" "fit/fit.candidate"
      recorded.Event.path;
    Alcotest.(check string) "outer unaffected" "outer" outer.Event.path;
    (match Event.duration recorded with
    | Some d -> Alcotest.(check bool) "nonnegative duration" true (d >= 0.)
    | None -> Alcotest.fail "expected a span event");
    Alcotest.(check (option string)) "fields carried" (Some "exponential")
      (Option.bind (Event.field "candidate" recorded) Json.to_str);
    (* Null sink: a no-op, nothing recorded anywhere. *)
    Span.record Sink.null ~start ~path:"nowhere" ()
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_null_sink_no_state () =
  (* On the null sink Span.run must be the identity wrapper: no events
     stored anywhere, no nesting state, fields thunk never evaluated. *)
  let evaluated = ref false in
  let result =
    Span.run Sink.null ~name:"outer"
      ~fields:(fun () ->
        evaluated := true;
        [])
      (fun () ->
        Alcotest.(check string) "no path pushed" "" (Span.current_path ());
        Span.run Sink.null ~name:"inner" (fun () ->
            Alcotest.(check string) "still no path" "" (Span.current_path ());
            5))
  in
  Alcotest.(check int) "value through" 5 result;
  Alcotest.(check bool) "fields thunk not evaluated" false !evaluated;
  Alcotest.(check int) "no events" 0 (List.length (Sink.events Sink.null));
  (* emit's event thunk must not run either. *)
  Sink.emit Sink.null (fun () -> Alcotest.fail "event thunk evaluated on null");
  Alcotest.(check bool) "is_null" true (Sink.is_null Sink.null);
  Alcotest.(check bool) "tee of nulls is null" true
    (Sink.is_null (Sink.tee Sink.null Sink.null))

(* ------------------------------------------------------------------ *)
(* Report aggregation                                                  *)
(* ------------------------------------------------------------------ *)

let span_at ~ts ~path ?(fields = []) dur =
  Event.make ~ts ~path (Event.Span dur) ~fields

let test_report_phase_stats () =
  let events =
    List.mapi
      (fun i d -> span_at ~ts:(float_of_int i) ~path:"work" d)
      [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]
  in
  let r = Report.of_events events in
  match Report.find_phase r "work" with
  | None -> Alcotest.fail "phase missing"
  | Some p ->
    Alcotest.(check int) "count" 10 p.Report.count;
    Alcotest.(check (float 1e-9)) "total" 5.5 p.Report.total_s;
    Alcotest.(check (float 1e-9)) "min" 0.1 p.Report.min_s;
    Alcotest.(check (float 1e-9)) "max" 1.0 p.Report.max_s;
    Alcotest.(check (float 1e-9)) "mean" 0.55 p.Report.mean_s;
    (* Type-7 quantiles on 0.1..1.0. *)
    Alcotest.(check (float 1e-9)) "p50" 0.55 p.Report.p50_s;
    Alcotest.(check (float 1e-9)) "p90" 0.91 p.Report.p90_s;
    Alcotest.(check (float 1e-9)) "rate" (10. /. 5.5) p.Report.rate_per_s

let test_report_solved_counts () =
  let solved b = [ ("solved", Json.Bool b) ] in
  let events =
    [
      span_at ~ts:0. ~path:"run" ~fields:(solved true) 0.1;
      span_at ~ts:1. ~path:"run" ~fields:(solved false) 0.2;
      span_at ~ts:2. ~path:"run" ~fields:(solved true) 0.3;
      span_at ~ts:3. ~path:"run" ~fields:[ ("error", Json.Bool true) ] 0.4;
    ]
  in
  let p = Option.get (Report.find_phase (Report.of_events events) "run") in
  Alcotest.(check int) "solved" 2 p.Report.solved;
  Alcotest.(check int) "unsolved" 1 p.Report.unsolved;
  Alcotest.(check int) "errors" 1 p.Report.errors

let test_report_counter_snapshots () =
  (* Count events are cumulative snapshots: the report keeps the last one
     per path, in first-seen order. *)
  let count ~ts path n = Event.make ~ts ~path (Event.Count n) in
  let r =
    Report.of_events
      [ count ~ts:0. "evals" 3; count ~ts:1. "hits" 1; count ~ts:2. "evals" 7 ]
  in
  Alcotest.(check (list (pair string int))) "last snapshot wins"
    [ ("evals", 7); ("hits", 1) ]
    r.Report.counters

(* ------------------------------------------------------------------ *)
(* JSONL sink round-trip                                               *)
(* ------------------------------------------------------------------ *)

let test_jsonl_roundtrip_reaggregates () =
  let path = tmp_file ".jsonl" in
  let mem = Sink.memory () in
  let sink = Sink.tee (Sink.jsonl path) mem in
  Span.run sink ~name:"outer" (fun () ->
      for i = 1 to 5 do
        Span.run sink ~name:"step"
          ~fields:(fun () ->
            [ ("i", Json.Int i); ("solved", Json.Bool (i mod 2 = 1)) ])
          (fun () -> Sys.opaque_identity (ignore (Array.make 64 i)))
      done);
  Sink.close sink;
  let written = Sink.events mem in
  let back = Report.load_jsonl path in
  Sys.remove path;
  Alcotest.(check int) "event count" (List.length written) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "path" a.Event.path b.Event.path;
      Alcotest.(check (float 0.)) "exact ts round-trip" a.Event.ts b.Event.ts;
      Alcotest.(check (option (float 0.))) "exact duration round-trip"
        (Event.duration a) (Event.duration b))
    written back;
  (* Aggregating the file must reproduce aggregating the live stream. *)
  let live = Report.of_events written and reread = Report.of_events back in
  Alcotest.(check int) "events" live.Report.events reread.Report.events;
  let p = Option.get (Report.find_phase reread "outer/step") in
  Alcotest.(check int) "steps" 5 p.Report.count;
  Alcotest.(check int) "solved" 3 p.Report.solved;
  Alcotest.(check int) "unsolved" 2 p.Report.unsolved;
  let live_p = Option.get (Report.find_phase live "outer/step") in
  Alcotest.(check (float 0.)) "identical totals" live_p.Report.total_s
    p.Report.total_s

let test_load_jsonl_rejects_garbage () =
  let path = tmp_file ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"ts\":0.1,\"path\":\"a\",\"ev\":\"mark\"}\nnot json\n";
  close_out oc;
  (match Report.load_jsonl path with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "malformed line should raise");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Campaign integration                                                *)
(* ------------------------------------------------------------------ *)

let test_campaign_emits_run_events () =
  let sink = Sink.memory () in
  let runs = 20 in
  let c =
    Lv_exec.Pool.with_pool ~domains:2 @@ fun pool ->
    Lv_multiwalk.Campaign.run_fn
      ~ctx:(Lv_context.Context.make ~pool ~telemetry:sink ())
      ~label:"tele" ~seed:42 ~runs (fun () rng ->
        let iterations = 1 + Lv_stats.Rng.int rng 50 in
        { Lv_multiwalk.Run.seconds = 0.001; iterations; solved = iterations > 5 })
  in
  let events = Sink.events sink in
  let report = Report.of_events events in
  let run_phase = Option.get (Report.find_phase report "campaign.run") in
  Alcotest.(check int) "one event per run" runs run_phase.Report.count;
  Alcotest.(check int) "unsolved agrees with campaign" c.Lv_multiwalk.Campaign.n_censored
    run_phase.Report.unsolved;
  Alcotest.(check int) "solved is the rest" (runs - c.Lv_multiwalk.Campaign.n_censored)
    run_phase.Report.solved;
  (* The traced iteration counts are the campaign's observations. *)
  let traced_iterations =
    List.filter_map
      (fun ev ->
        if ev.Event.path <> "campaign.run" then None
        else
          match (Event.field "run" ev, Event.field "iterations" ev) with
          | Some r, Some i -> Some (Option.get (Json.to_int r), Option.get (Json.to_int i))
          | _ -> None)
      events
    |> List.sort compare
  in
  List.iteri
    (fun r (r', iters) ->
      Alcotest.(check int) "run index" r r';
      Alcotest.(check int) "iterations match observation"
        (List.nth c.Lv_multiwalk.Campaign.observations r).Lv_multiwalk.Run.iterations
        iters)
    traced_iterations;
  (* Exactly one enclosing campaign span. *)
  let campaign_phase = Option.get (Report.find_phase report "campaign") in
  Alcotest.(check int) "one campaign span" 1 campaign_phase.Report.count

let test_fit_emits_candidate_spans () =
  let sink = Sink.memory () in
  let rng = Lv_stats.Rng.create ~seed:3 in
  let xs = Array.init 150 (fun _ -> Lv_stats.Rng.float rng 1000. +. 1.) in
  let report =
    Lv_core.Fit.fit ~ctx:(Lv_context.Context.make ~telemetry:sink ()) xs
  in
  let tr = Report.of_events (Sink.events sink) in
  let fit_phase = Option.get (Report.find_phase tr "fit") in
  Alcotest.(check int) "one fit span" 1 fit_phase.Report.count;
  (match Report.find_phase tr "fit/fit.candidate" with
  | Some p ->
    Alcotest.(check bool) "per-candidate spans present" true (p.Report.count >= 2)
  | None -> Alcotest.fail "no fit.candidate phase");
  Alcotest.(check bool) "fit result unaffected" true (report.Lv_core.Fit.fits <> [])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lv_telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "float vs int" `Quick test_json_float_int_distinction;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
        ] );
      ( "event",
        [ Alcotest.test_case "json round-trip" `Quick test_event_json_roundtrip ] );
      ( "span",
        [
          Alcotest.test_case "nesting paths" `Quick test_span_nesting_paths;
          Alcotest.test_case "exception tagging" `Quick test_span_exception_tagged;
          Alcotest.test_case "fields after body" `Quick test_span_fields_thunk_sees_result;
          Alcotest.test_case "record at a fixed path" `Quick
            test_span_record_fixed_path;
          Alcotest.test_case "null sink is inert" `Quick test_null_sink_no_state;
        ] );
      ( "report",
        [
          Alcotest.test_case "phase stats" `Quick test_report_phase_stats;
          Alcotest.test_case "solved counts" `Quick test_report_solved_counts;
          Alcotest.test_case "counter snapshots" `Quick test_report_counter_snapshots;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip re-aggregates" `Quick test_jsonl_roundtrip_reaggregates;
          Alcotest.test_case "garbage rejected" `Quick test_load_jsonl_rejects_garbage;
        ] );
      ( "integration",
        [
          Alcotest.test_case "campaign run events" `Quick test_campaign_emits_run_events;
          Alcotest.test_case "fit candidate spans" `Quick test_fit_emits_candidate_spans;
        ] );
    ]
