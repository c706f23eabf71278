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
(* Json.read_float                                                     *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

(* The reader on [tok], also placed inside a longer string, against
   [float_of_string_opt]: the same verdict and the same bits. *)
let reads_like_library tok =
  let dst = [| nan |] in
  let read s pos stop = if Json.read_float dst s pos stop then Some dst.(0) else None in
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> Int64.equal (bits x) (bits y)
    | _ -> false
  in
  let expected = float_of_string_opt tok in
  same expected (read tok 0 (String.length tok))
  && same expected (read ("x:" ^ tok ^ ",") 2 (2 + String.length tok))

let test_read_float_edges () =
  let digits n = String.init n (fun i -> Char.chr (48 + ((i * 7) + 3) mod 10)) in
  let edges =
    [ "0"; "-0"; "-0.0"; "0.0"; "1."; "-.5"; "00.5"; ".5"; "1e"; "1e+"; "1e-";
      "."; "-"; "-."; "e5"; ".e5"; "+1"; "--1"; "1e5.5"; "1.2.3"; "1-2"; "1e+-5";
      "9007199254740993"; "9007199254740992"; "9007199254740991";
      "1e23"; "8.98846567431158e307"; "2.2250738585072011e-308";
      "2.2250738585072014e-308"; "4.9406564584124654e-324";
      "1.7976931348623157e308"; "1.7976931348623158e308";
      "1.7976931348623159e308"; "9999999999999999999"; "1e-342";
      "1e-343"; "1e308"; "1e309"; "10e308"; "1234567890123456789e-343";
      "1234567890123456789e-342"; "12e-344"; "0e999999999"; "1e000000001";
      "0.1"; "0.3"; "1E+05"; "123456789012345678"; "1234567890123456789";
      "0.00012345678901234567"; "7.2057594037927933e16"; "5e-324"; "1e-400" ]
    @ List.concat_map
        (fun n -> [ digits n; "0." ^ digits n; digits n ^ "e-300"; "-" ^ digits n ^ "e22" ])
        [ 17; 18; 19; 20; 21; 22; 23; 24; 25 ]
  in
  List.iter
    (fun tok ->
      Alcotest.(check bool) (Printf.sprintf "%S reads as float_of_string" tok) true
        (reads_like_library tok))
    edges

(* Natural numbers as little-endian arrays of 24-bit limbs: exact
   arithmetic for checking the power table. *)
module Nat = struct
  let limb = 24
  let mask = (1 lsl limb) - 1

  let trim a =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do decr n done;
    Array.sub a 0 !n

  let of_int n =
    trim (Array.init 3 (fun i -> (n lsr (limb * i)) land mask))

  (* [x] read as unsigned. *)
  let of_int64 x =
    trim
      (Array.init 3 (fun i ->
           Int64.to_int (Int64.logand (Int64.shift_right_logical x (limb * i)) 0xFFFFFFL)))

  let add a b =
    let n = max (Array.length a) (Array.length b) + 1 in
    let r = Array.make n 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let get x = if i < Array.length x then x.(i) else 0 in
      let v = get a + get b + !carry in
      r.(i) <- v land mask;
      carry := v lsr limb
    done;
    trim r

  let mul a b =
    let r = Array.make (Array.length a + Array.length b + 1) 0 in
    Array.iteri
      (fun i x ->
        let carry = ref 0 in
        Array.iteri
          (fun j y ->
            let v = r.(i + j) + (x * y) + !carry in
            r.(i + j) <- v land mask;
            carry := v lsr limb)
          b;
        let k = ref (i + Array.length b) in
        while !carry > 0 do
          let v = r.(!k) + !carry in
          r.(!k) <- v land mask;
          carry := v lsr limb;
          incr k
        done)
      a;
    trim r

  let pow2 n =
    let r = Array.make ((n / limb) + 1) 0 in
    r.(n / limb) <- 1 lsl (n mod limb);
    r

  let rec pow x k = if k = 0 then of_int 1 else mul x (pow x (k - 1))

  let compare a b =
    let a = trim a and b = trim b in
    if Array.length a <> Array.length b then Int.compare (Array.length a) (Array.length b)
    else begin
      let r = ref 0 and i = ref (Array.length a - 1) in
      while !r = 0 && !i >= 0 do
        r := Int.compare a.(!i) b.(!i);
        decr i
      done;
      !r
    end

  let bit_length a =
    let a = trim a in
    let n = Array.length a in
    if n = 0 then 0
    else begin
      let top = ref a.(n - 1) and b = ref 0 in
      while !top > 0 do incr b; top := !top lsr 1 done;
      ((n - 1) * limb) + !b
    end
end

(* Every table entry, exactly: [c] is in [2^127, 2^128); for q >= 0 it is
   5^q shifted to 128 bits and cut down, for q < 0 the least integer above
   2^b / 5^-q.  The reader's binary exponent [(217706 q) asr 16] is
   [floor (q log2 10)] at every q. *)
let test_power_table_exact () =
  let open Powers_of_ten in
  Alcotest.(check int) "two words per power" (2 * (max_q - min_q + 1)) (Array.length table);
  let five = Nat.of_int 5 and ten = Nat.of_int 10 in
  for q = min_q to max_q do
    let k = 2 * (q - min_q) in
    let c = Nat.add (Nat.mul (Nat.of_int64 table.(k)) (Nat.pow2 64)) (Nat.of_int64 table.(k + 1)) in
    let name what = Printf.sprintf "q = %d: %s" q what in
    Alcotest.(check int) (name "c has 128 bits") 128 (Nat.bit_length c);
    let z = Nat.pow five (abs q) in
    (if q >= 0 then begin
       let l = Nat.bit_length z in
       if l <= 128 then
         Alcotest.(check bool) (name "c = 5^q 2^(128-l)") true
           (Nat.compare c (Nat.mul z (Nat.pow2 (128 - l))) = 0)
       else begin
         let scale = Nat.pow2 (l - 128) in
         Alcotest.(check bool) (name "c 2^(l-128) <= 5^q < (c+1) 2^(l-128)") true
           (Nat.compare (Nat.mul c scale) z <= 0
           && Nat.compare z (Nat.mul (Nat.add c (Nat.of_int 1)) scale) < 0)
       end
     end
     else begin
       (* 2^b < c z <= 2^b + z picks b as the top bit of c z - 1. *)
       let cz = Nat.mul c z in
       let b = Nat.bit_length cz - 1 in
       let b = if Nat.compare cz (Nat.pow2 b) = 0 then b - 1 else b in
       Alcotest.(check bool) (name "(c - 1) 5^-q <= 2^b < c 5^-q") true
         (Nat.compare (Nat.pow2 b) cz < 0
         && Nat.compare cz (Nat.add (Nat.pow2 b) z) <= 0)
     end);
    let log2_10 =
      if q >= 0 then Nat.bit_length (Nat.pow ten q) - 1
      else - Nat.bit_length (Nat.pow ten (-q))
    in
    Alcotest.(check int) (name "floor (q log2 10)") log2_10 ((217706 * q) asr 16)
  done

let test_read_float_allocates_nothing () =
  let toks =
    Array.init 1000 (fun i ->
        Printf.sprintf "%.17g" (float_of_int (i + 1) *. 1.2345678e-5))
  in
  let dst = [| 0. |] in
  let before = Gc.minor_words () in
  Array.iter
    (fun tok -> assert (Json.read_float dst tok 0 (String.length tok)))
    toks;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 1000 tokens" words)
    true (words < 10.)

let read_float_props =
  let open QCheck in
  [
    Test.make ~name:"read_float matches float_of_string on random doubles"
      ~count:3000 int64
      (fun b ->
        let x = Int64.float_of_bits b in
        List.for_all reads_like_library
          [ Printf.sprintf "%.17g" x; Printf.sprintf "%.15g" x; Printf.sprintf "%.6g" x ]);
    Test.make ~name:"read_float matches float_of_string on random decimal tokens"
      ~count:3000
      (make ~print:Fun.id
         Gen.(
           map3
             (fun (neg, mantissa) point exp ->
               let n = String.length mantissa in
               let p = point mod (n + 1) in
               (if neg then "-" else "")
               ^ String.sub mantissa 0 p ^ "." ^ String.sub mantissa p (n - p)
               ^ match exp with Some e -> "e" ^ string_of_int e | None -> "")
             (pair bool (string_size ~gen:numeral (int_range 1 24)))
             nat
             (opt (int_range (-360) 330))))
      reads_like_library;
  ]

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
      ( "read_float",
        [
          Alcotest.test_case "edge corpus" `Quick test_read_float_edges;
          Alcotest.test_case "power table exact" `Quick test_power_table_exact;
          Alcotest.test_case "decided tokens allocate nothing" `Quick
            test_read_float_allocates_nothing;
        ]
        @ List.map QCheck_alcotest.to_alcotest read_float_props );
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
