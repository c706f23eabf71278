(* Tests for the experiment engine: Context builders and validation, the
   Scenario parser (errors with file:line, canonical round-trip), the
   content-addressed Artifact store, and Engine.run end to end — including
   the acceptance property that a second run against the same cache is
   served entirely from artifacts with byte-identical outputs. *)

open Lv_engine
module Ctx = Lv_context.Context

let tmp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lv_engine_test_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Artifact.mkdir_p dir;
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let check_fails name f =
  match f () with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: expected Failure" name

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

let test_context_defaults () =
  let c = Ctx.default in
  Alcotest.(check (float 0.)) "alpha" 0.05 c.Ctx.alpha;
  Alcotest.(check bool) "no pool" true (c.Ctx.pool = None);
  Alcotest.(check bool) "null telemetry" true
    (Lv_telemetry.Sink.is_null c.Ctx.telemetry);
  Alcotest.(check bool) "no cache" true (c.Ctx.cache_dir = None)

let test_context_builders_compose () =
  Lv_exec.Pool.with_pool ~domains:1 @@ fun pool ->
  let sink = Lv_telemetry.Sink.memory () in
  let m = Ctx.make ~pool ~telemetry:sink ~cache_dir:"/tmp/c" () in
  (* Field by field: pools and sinks are compared physically. *)
  Alcotest.(check bool) "pool" true
    (match m.Ctx.pool with Some p -> p == pool | None -> false);
  Alcotest.(check bool) "telemetry" true (m.Ctx.telemetry == sink);
  Alcotest.(check (float 0.)) "alpha" 0.05 m.Ctx.alpha;
  Alcotest.(check bool) "cache dir" true (m.Ctx.cache_dir = Some "/tmp/c")

let test_context_validation () =
  (* A context's alpha is checked where it is used: the record can be
     built with any value, and the fit that reads it rejects nonsense —
     exactly as it rejects the same value passed explicitly. *)
  let xs = Array.init 20 (fun i -> float_of_int (i + 1)) in
  List.iter
    (fun alpha ->
      let ctx = { Ctx.default with Ctx.alpha } in
      check_invalid
        (Printf.sprintf "ctx alpha %g" alpha)
        (fun () -> Lv_core.Fit.fit ~ctx xs);
      check_invalid
        (Printf.sprintf "explicit alpha %g" alpha)
        (fun () -> Lv_core.Fit.fit ~alpha xs))
    [ 0.; 1.; 1.5; -0.1; Float.nan ]

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)
(* ------------------------------------------------------------------ *)

let minimal = "[scenario]\nproblem = queens\nsize = 30\n"

let test_scenario_parse_defaults () =
  let sc = Scenario.of_string minimal in
  Alcotest.(check string) "canonical problem" "n-queens" sc.Scenario.problem;
  Alcotest.(check string) "name from canonical problem" "n-queens-30"
    sc.Scenario.name;
  Alcotest.(check int) "runs" 200 sc.Scenario.runs;
  Alcotest.(check int) "seed" 1 sc.Scenario.seed;
  Alcotest.(check bool) "default stages" true
    (sc.Scenario.stages = Scenario.default_stages);
  Alcotest.(check bool) "no validation by default" true
    (sc.Scenario.validate = None);
  Alcotest.(check bool) "iteration metric" true
    (sc.Scenario.metric = `Iterations)

let test_scenario_parse_full () =
  let text =
    "# comment\n\
     ; also a comment\n\
     [scenario]\n\
     name = x\n\
     problem = costas\n\
     size = 12\n\
     runs = 50\n\
     seed = 9\n\
     cores = 2, 4, 8\n\
     metric = seconds\n\
     walk = 0.5\n\
     iteration-cap = 1000\n\
     timeout = 2.5\n\
     max_iters = 800\n\
     alpha = 0.01\n\
     candidates = paper\n\
     stages = compare,simulate,predict,fit,campaign,campaign\n\
     output = out\n"
  in
  let sc = Scenario.of_string text in
  Alcotest.(check string) "problem" "costas-array" sc.Scenario.problem;
  Alcotest.(check bool) "cores" true (sc.Scenario.cores = [ 2; 4; 8 ]);
  Alcotest.(check bool) "metric" true (sc.Scenario.metric = `Seconds);
  Alcotest.(check bool) "walk" true (sc.Scenario.walk = Some 0.5);
  Alcotest.(check bool) "key spelling - = _" true
    (sc.Scenario.iteration_cap = Some 1000 && sc.Scenario.max_iters = Some 800);
  Alcotest.(check bool) "paper candidates expanded" true
    (sc.Scenario.candidates
    = Some (List.map Lv_core.Fit.candidate_name Lv_core.Fit.paper_candidates));
  Alcotest.(check bool) "stages normalized to pipeline order" true
    (sc.Scenario.stages = Scenario.default_stages);
  Alcotest.(check bool) "output" true (sc.Scenario.output_dir = Some "out")

let expect_parse_error ~substring text =
  match Scenario.of_string ~path:"f.conf" text with
  | exception Failure msg ->
    if
      not
        (String.length msg >= String.length substring
        && List.exists
             (fun i -> String.sub msg i (String.length substring) = substring)
             (List.init
                (String.length msg - String.length substring + 1)
                Fun.id))
    then Alcotest.failf "error %S does not mention %S" msg substring
  | _ -> Alcotest.failf "expected parse failure on %S" text

let test_scenario_parse_errors () =
  expect_parse_error ~substring:"missing required key" "[scenario]\nsize = 3\n";
  expect_parse_error ~substring:"f.conf:2" "[scenario]\nnonsense\n";
  expect_parse_error ~substring:"unknown key" (minimal ^ "frob = 1\n");
  expect_parse_error ~substring:"duplicate key" (minimal ^ "size = 4\n");
  expect_parse_error ~substring:"unknown section" "[other]\n";
  expect_parse_error ~substring:"not an integer" (minimal ^ "runs = many\n");
  expect_parse_error ~substring:"unknown stage" (minimal ^ "stages = warp\n");
  expect_parse_error ~substring:"unknown problem"
    "[scenario]\nproblem = sudoku\nsize = 9\n";
  expect_parse_error ~substring:"unknown candidate"
    (minimal ^ "candidates = cauchy\n");
  (* Stage prerequisites. *)
  expect_parse_error ~substring:"requires stage" (minimal ^ "stages = fit\n");
  expect_parse_error ~substring:"requires stage"
    (minimal ^ "stages = campaign,simulate,compare\n")

let test_scenario_roundtrip () =
  let sc =
    Scenario.make ~problem:"ms" ~size:8 ~runs:33 ~seed:5 ~cores:[ 3; 9 ]
      ~metric:`Seconds ~walk:0.25 ~timeout:1.5 ~alpha:0.1
      ~candidates:[ "exponential" ] ~output_dir:"o" ()
  in
  let reparsed = Scenario.of_string (Scenario.to_string sc) in
  Alcotest.(check bool) "canonical text round-trips" true (reparsed = sc);
  Alcotest.(check string) "canonicalized problem" "magic-square"
    sc.Scenario.problem

let test_scenario_make_validation () =
  check_fails "size" (fun () -> Scenario.make ~problem:"queens" ~size:0 ());
  check_fails "runs" (fun () ->
      Scenario.make ~problem:"queens" ~size:8 ~runs:0 ());
  check_fails "cores" (fun () ->
      Scenario.make ~problem:"queens" ~size:8 ~cores:[] ());
  check_fails "walk range" (fun () ->
      Scenario.make ~problem:"queens" ~size:8 ~walk:1.5 ());
  check_fails "alpha range" (fun () ->
      Scenario.make ~problem:"queens" ~size:8 ~alpha:0. ());
  check_fails "empty stages" (fun () ->
      Scenario.make ~problem:"queens" ~size:8 ~stages:[] ())

(* ------------------------------------------------------------------ *)
(* Scenario parser fuzzing                                             *)
(* ------------------------------------------------------------------ *)

(* Random valid scenarios for the round-trip properties: every knob the
   canonical renderer prints, drawn from its legal range, with stage sets
   closed under the pipeline's prerequisite relation.  The generator
   builds through [Scenario.make], so the value under test is already
   normalized (canonical problem name, pipeline-ordered stages, the
   validate-stage/validate-config invariant applied). *)
let gen_valid_scenario =
  let open QCheck.Gen in
  let stage_sets =
    [
      [ Scenario.Campaign ];
      [ Scenario.Campaign; Scenario.Simulate ];
      [ Scenario.Campaign; Scenario.Fit ];
      [ Scenario.Campaign; Scenario.Fit; Scenario.Predict ];
      Scenario.default_stages;
      Scenario.all_stages;
    ]
  in
  let candidate_names =
    List.map Lv_core.Fit.candidate_name Lv_core.Fit.all_candidates
  in
  let* problem = oneofl Lv_problems.Registry.names in
  let* size = int_range 1 500 in
  let* runs = int_range 1 2000 in
  let* seed = int_range 0 1_000_000 in
  let* cores = list_size (int_range 1 6) (int_range 1 512) in
  let cores = if cores = [] then [ 2 ] else cores in
  let* metric = oneofl [ `Iterations; `Seconds ] in
  let* walk = opt (float_range 0. 1.) in
  let* iteration_cap = opt (int_range 1 1_000_000) in
  let* timeout = opt (float_range 0.001 3600.) in
  let* max_iters = opt (int_range 1 1_000_000) in
  let* alpha = opt (float_range 0.001 0.999) in
  let* candidates =
    opt
      (let* n = int_range 1 (List.length candidate_names) in
       let* shuffled = shuffle_l candidate_names in
       return (List.filteri (fun i _ -> i < n) shuffled))
  in
  let* stages = oneofl stage_sets in
  let* validate_config =
    (* A validation config implies the Validate stage, which requires
       Fit — only attach one to a Fit-bearing stage set. *)
    if List.mem Scenario.Fit stages then
      opt
        (let* replicates = int_range 2 100 in
         let* folds = int_range 2 6 in
         let* level = float_range 0.5 0.995 in
         let* trials = int_range 0 20 in
         return { Lv_validate.Validate.replicates; folds; level; trials })
    else return None
  in
  let* output_dir = opt (oneofl [ "out"; "results/x"; "o" ]) in
  return
    (Scenario.make ~problem ~size ~runs ~seed ~cores ~metric ?walk
       ?iteration_cap ?timeout ?max_iters ?alpha ?candidates ~stages
       ?validate:validate_config ?output_dir ())

(* Junk input for the error-path property: a soup of plausible-looking and
   hostile lines — real keys, malformed values, random printables. *)
let gen_junk_text =
  let open QCheck.Gen in
  let junk_line =
    oneof
      [
        string_size ~gen:printable (int_range 0 30);
        (let* k = string_size ~gen:(char_range 'a' 'z') (int_range 0 8) in
         let* v = string_size ~gen:printable (int_range 0 12) in
         return (k ^ " = " ^ v));
        oneofl
          [
            "[scenario]";
            "[other]";
            "# comment";
            "; note";
            "problem = queens";
            "problem = sudoku";
            "size = 30";
            "size = huge";
            "runs = 0";
            "stages = fit";
            "stages = warp";
            "validate = on";
            "validate = replicates=zero";
            "validate = levels=0.9";
            "cores = 1,2,x";
            "alpha = 2";
            "=";
            " = 3";
          ];
      ]
  in
  let* lines = list_size (int_range 0 12) junk_line in
  return (String.concat "\n" lines)

let scenario_qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"round-trip: parse (print sc) = sc" ~count:250
      (make ~print:Scenario.to_string gen_valid_scenario)
      (fun sc -> Scenario.of_string (Scenario.to_string sc) = sc);
    Test.make ~name:"fixpoint: print (parse text) = text" ~count:250
      (make ~print:Scenario.to_string gen_valid_scenario)
      (fun sc ->
        let text = Scenario.to_string sc in
        Scenario.to_string (Scenario.of_string text) = text);
    Test.make ~name:"junk input: Failure tagged with the path, never another \
                     exception"
      ~count:600
      (make ~print:Print.string gen_junk_text)
      (fun text ->
        match Scenario.of_string ~path:"fuzz.conf" text with
        | _ -> true
        | exception Failure msg ->
          String.length msg >= 9 && String.sub msg 0 9 = "fuzz.conf"
        | exception _ -> false);
    Test.make ~name:"junk line is reported with its line number" ~count:120
      (pair
         (make ~print:Print.string
            (QCheck.Gen.string_size
               ~gen:(QCheck.Gen.char_range 'a' 'z')
               (QCheck.Gen.int_range 1 10)))
         (int_range 0 3))
      (fun (junk, before) ->
        (* Insert a key-less line after [before] comment lines and the
           3-line minimal scenario; it must be reported as line 4+before. *)
        let padding = String.concat "" (List.init before (fun _ -> "# pad\n")) in
        let text = padding ^ minimal ^ junk ^ "\n" in
        let expect = Printf.sprintf "fuzz.conf:%d:" (4 + before) in
        match Scenario.of_string ~path:"fuzz.conf" text with
        | _ -> false
        | exception Failure msg ->
          String.length msg >= String.length expect
          && String.sub msg 0 (String.length expect) = expect);
  ]

(* ------------------------------------------------------------------ *)
(* Artifact                                                            *)
(* ------------------------------------------------------------------ *)

let test_artifact_key_stable () =
  let k = Artifact.key ~stage:"s" ~params:[ ("a", "1"); ("b", "2") ] ~seed:7 in
  Alcotest.(check string) "param order irrelevant" k
    (Artifact.key ~stage:"s" ~params:[ ("b", "2"); ("a", "1") ] ~seed:7);
  Alcotest.(check bool) "stage matters" true
    (k <> Artifact.key ~stage:"t" ~params:[ ("a", "1"); ("b", "2") ] ~seed:7);
  Alcotest.(check bool) "seed matters" true
    (k <> Artifact.key ~stage:"s" ~params:[ ("a", "1"); ("b", "2") ] ~seed:8);
  Alcotest.(check bool) "params matter" true
    (k <> Artifact.key ~stage:"s" ~params:[ ("a", "1"); ("b", "3") ] ~seed:7);
  Alcotest.(check bool) "hex digest" true
    (String.length k = 32
    && String.for_all
         (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
         k)

let test_artifact_cache_hit_miss () =
  let t = Artifact.create ~dir:(tmp_dir ()) () in
  let computed = ref 0 in
  let call () =
    Artifact.with_cache t ~stage:"s" ~key:"k" ~ext:"txt"
      ~load:(fun file -> int_of_string (String.trim (read_file file)))
      ~save:(fun v tmp ->
        let oc = open_out tmp in
        Printf.fprintf oc "%d\n" v;
        close_out oc)
      (fun () ->
        incr computed;
        41 + !computed)
  in
  Alcotest.(check int) "first call computes" 42 (call ());
  Alcotest.(check int) "second call loads" 42 (call ());
  Alcotest.(check int) "computed once" 1 !computed;
  Alcotest.(check int) "one hit" 1 (Artifact.hits t);
  Alcotest.(check int) "one miss" 1 (Artifact.misses t);
  (* Corrupt the artifact: the load failure is a miss and a recompute that
     overwrites the bad file. *)
  let file = Artifact.path t ~stage:"s" ~key:"k" ~ext:"txt" in
  let oc = open_out file in
  output_string oc "garbage";
  close_out oc;
  Alcotest.(check int) "corrupt artifact recomputed" 43 (call ());
  Alcotest.(check int) "then served again" 43 (call ());
  Alcotest.(check int) "misses counted" 2 (Artifact.misses t)

let test_artifact_fatal_load_propagates () =
  (* A [Failure] from [load] is a bad artifact: a miss and a recompute.
     An interrupt is not, and must reach the caller with nothing counted
     or computed. *)
  let t = Artifact.create ~dir:(tmp_dir ()) () in
  let file = Artifact.path t ~stage:"s" ~key:"k" ~ext:"txt" in
  let oc = open_out file in
  output_string oc "1\n";
  close_out oc;
  let computed = ref 0 in
  let call load =
    Artifact.with_cache t ~stage:"s" ~key:"k" ~ext:"txt" ~load
      ~save:(fun v tmp ->
        let oc = open_out tmp in
        Printf.fprintf oc "%d\n" v;
        close_out oc)
      (fun () ->
        incr computed;
        7)
  in
  (match call (fun _ -> raise Sys.Break) with
  | _ -> Alcotest.fail "Sys.Break from load was swallowed"
  | exception Sys.Break -> ());
  Alcotest.(check int) "nothing computed after the interrupt" 0 !computed;
  Alcotest.(check int) "no miss counted" 0 (Artifact.misses t);
  Alcotest.(check int) "Failure from load is a miss" 7 (call (fun _ -> failwith "bad"));
  Alcotest.(check int) "computed once" 1 !computed;
  Alcotest.(check int) "one miss" 1 (Artifact.misses t)

let test_artifact_telemetry_counters () =
  let sink = Lv_telemetry.Sink.memory () in
  let t = Artifact.create ~telemetry:sink ~dir:(tmp_dir ()) () in
  let call () =
    Artifact.with_cache t ~stage:"s" ~key:"k" ~ext:"txt"
      ~load:(fun file -> read_file file)
      ~save:(fun v tmp ->
        let oc = open_out tmp in
        output_string oc v;
        close_out oc)
      (fun () -> "x")
  in
  ignore (call ());
  ignore (call ());
  let count path =
    List.filter_map
      (fun e ->
        if e.Lv_telemetry.Event.path = path then
          match e.Lv_telemetry.Event.kind with
          | Lv_telemetry.Event.Count n -> Some n
          | _ -> None
        else None)
      (Lv_telemetry.Sink.events sink)
  in
  Alcotest.(check (list int)) "hit counter" [ 1 ] (count "engine.cache.hit");
  Alcotest.(check (list int)) "miss counter" [ 1 ] (count "engine.cache.miss")

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

(* Small and fast: n-queens 20, a handful of runs. *)
let small_scenario ?(stages = Scenario.default_stages) ?output_dir () =
  Scenario.make ~problem:"n-queens" ~size:20 ~runs:12 ~seed:3
    ~cores:[ 2; 4 ] ~candidates:[ "exponential"; "shifted-exponential" ]
    ~stages ?output_dir ()

let test_engine_runs_all_stages () =
  let o = Engine.run (small_scenario ()) in
  Alcotest.(check int) "all runs observed" 12
    (List.length o.Engine.campaign.Lv_multiwalk.Campaign.observations);
  Alcotest.(check bool) "fit present" true (o.Engine.fit <> None);
  Alcotest.(check bool) "prediction present" true (o.Engine.prediction <> None);
  Alcotest.(check int) "simulated rows" 2 (List.length o.Engine.simulated);
  Alcotest.(check int) "comparison rows" 2 (List.length o.Engine.comparison);
  Alcotest.(check int) "no cache" 0 (o.Engine.cache_hits + o.Engine.cache_misses)

let test_engine_stage_subset () =
  let o = Engine.run (small_scenario ~stages:[ Scenario.Campaign ] ()) in
  Alcotest.(check bool) "no fit" true (o.Engine.fit = None);
  Alcotest.(check bool) "no prediction" true (o.Engine.prediction = None);
  Alcotest.(check bool) "no simulation" true (o.Engine.simulated = []);
  Alcotest.(check bool) "no comparison" true (o.Engine.comparison = [])

let test_engine_cache_second_run_free () =
  let cache = tmp_dir () in
  let out1 = tmp_dir () and out2 = tmp_dir () in
  let ctx = Ctx.make ~cache_dir:cache () in
  let run out = Engine.run ~ctx (small_scenario ~output_dir:out ()) in
  let o1 = run out1 in
  Alcotest.(check int) "first run: no hits" 0 o1.Engine.cache_hits;
  Alcotest.(check int) "first run: campaign + fit misses" 2 o1.Engine.cache_misses;
  let o2 = run out2 in
  Alcotest.(check int) "second run: all hits" 2 o2.Engine.cache_hits;
  Alcotest.(check int) "second run: zero misses" 0 o2.Engine.cache_misses;
  Alcotest.(check int) "restored everything" 12
    o2.Engine.campaign.Lv_multiwalk.Campaign.n_restored;
  (* Byte-identical outputs, computed or restored. *)
  List.iter2
    (fun (k1, p1) (k2, p2) ->
      Alcotest.(check string) "same artifact kinds" k1 k2;
      Alcotest.(check string) ("identical " ^ k1) (read_file p1) (read_file p2))
    o1.Engine.outputs o2.Engine.outputs;
  Alcotest.(check int) "dataset+prediction written" 2
    (List.length o1.Engine.outputs)

let test_engine_cache_key_sensitivity () =
  let cache = tmp_dir () in
  let ctx = Ctx.make ~cache_dir:cache () in
  let o1 = Engine.run ~ctx (small_scenario ()) in
  Alcotest.(check int) "seeded" 2 o1.Engine.cache_misses;
  (* A different seed must not be served from the first run's artifacts. *)
  let other =
    Scenario.make ~problem:"n-queens" ~size:20 ~runs:12 ~seed:4
      ~cores:[ 2; 4 ]
      ~candidates:[ "exponential"; "shifted-exponential" ]
      ()
  in
  let o2 = Engine.run ~ctx other in
  Alcotest.(check int) "changed seed: no hits" 0 o2.Engine.cache_hits;
  (* Same campaign, different alpha: campaign hits, fit recomputes. *)
  let refit =
    Scenario.make ~problem:"n-queens" ~size:20 ~runs:12 ~seed:3
      ~cores:[ 2; 4 ] ~alpha:0.01
      ~candidates:[ "exponential"; "shifted-exponential" ]
      ()
  in
  let o3 = Engine.run ~ctx refit in
  Alcotest.(check int) "campaign reused" 1 o3.Engine.cache_hits;
  Alcotest.(check int) "fit recomputed" 1 o3.Engine.cache_misses

let budget_scenario max_iters =
  Scenario.make ~problem:"n-queens" ~size:20 ~runs:6 ~seed:3 ~max_iters
    ~stages:[ Scenario.Campaign ] ()

let test_engine_scenario_budget_censors () =
  (* The scenario's iteration budget reaches the runs: with a 1-iteration
     cap nothing solves, and the campaign layer rejects the fully-censored
     result. *)
  match Engine.run (budget_scenario 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected the fully-censored campaign to be rejected"

let test_engine_scenario_budget_solves () =
  (* Under a generous scenario budget the same scenario solves every run,
     so the rejection above comes from the cap alone. *)
  let o = Engine.run (budget_scenario 10_000_000) in
  Alcotest.(check int) "runs solve under the generous budget" 0
    o.Engine.campaign.Lv_multiwalk.Campaign.n_censored

(* Artifact file names ([<stage>-<key>.<ext>]) of a fresh store filled by
   the CI scenario with a small validation config.  The keys hash every
   effective input of a stage, so any change to what a key covers — or to
   where a setting comes from — renames an artifact and fails here; a
   store filled by an earlier build would then silently miss. *)
let pinned_artifacts =
  [
    "campaign-88475299d0f8fa87962fef921626d7ba.jsonl";
    "fit-44401b873ec4a4f3b117ef7698dcd3af.json";
    "validate-7396f9ae6f7ac4828107c79fa9f183ba.json";
  ]

let test_engine_artifact_keys_pinned () =
  let conf =
    List.find Sys.file_exists
      [
        "../examples/scenarios/ci-smoke.conf";
        "examples/scenarios/ci-smoke.conf";
      ]
  in
  let sc = Scenario.of_file conf in
  let sc =
    {
      sc with
      Scenario.stages = [ Scenario.Campaign; Scenario.Fit; Scenario.Validate ];
      validate =
        Some
          { Lv_validate.Validate.replicates = 20; folds = 2; level = 0.9; trials = 0 };
    }
  in
  let cache = tmp_dir () in
  let o = Engine.run ~ctx:(Ctx.make ~cache_dir:cache ()) sc in
  Alcotest.(check int) "fresh store: every stage misses" 3 o.Engine.cache_misses;
  Alcotest.(check (list string)) "artifact names" pinned_artifacts
    (List.sort compare (Array.to_list (Sys.readdir cache)))

let test_engine_deterministic_across_ctx_pool () =
  (* Same scenario, pool of 1 vs pool of 3: identical datasets. *)
  let sc = small_scenario ~stages:[ Scenario.Campaign ] () in
  let values domains =
    Lv_exec.Pool.with_pool ~domains @@ fun pool ->
    let ctx = Ctx.make ~pool () in
    (Engine.run ~ctx sc).Engine.dataset.Lv_multiwalk.Dataset.values
  in
  Alcotest.(check bool) "pool-size invariant" true (values 1 = values 3)

let () =
  Random.self_init ();
  Alcotest.run "lv_engine"
    [
      ( "context",
        [
          Alcotest.test_case "defaults" `Quick test_context_defaults;
          Alcotest.test_case "builders compose" `Quick test_context_builders_compose;
          Alcotest.test_case "validation" `Quick test_context_validation;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "minimal defaults" `Quick test_scenario_parse_defaults;
          Alcotest.test_case "full file" `Quick test_scenario_parse_full;
          Alcotest.test_case "parse errors" `Quick test_scenario_parse_errors;
          Alcotest.test_case "canonical round-trip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "make validation" `Quick test_scenario_make_validation;
        ] );
      ( "scenario-fuzz",
        List.map QCheck_alcotest.to_alcotest scenario_qcheck_props );
      ( "artifact",
        [
          Alcotest.test_case "key stability" `Quick test_artifact_key_stable;
          Alcotest.test_case "hit/miss/corrupt" `Quick test_artifact_cache_hit_miss;
          Alcotest.test_case "fatal load exceptions propagate" `Quick
            test_artifact_fatal_load_propagates;
          Alcotest.test_case "telemetry counters" `Quick test_artifact_telemetry_counters;
        ] );
      ( "engine",
        [
          Alcotest.test_case "all stages" `Quick test_engine_runs_all_stages;
          Alcotest.test_case "stage subset" `Quick test_engine_stage_subset;
          Alcotest.test_case "second run served from cache" `Quick
            test_engine_cache_second_run_free;
          Alcotest.test_case "cache key sensitivity" `Quick
            test_engine_cache_key_sensitivity;
          Alcotest.test_case "scenario budget censors" `Quick
            test_engine_scenario_budget_censors;
          Alcotest.test_case "scenario budget solves" `Quick
            test_engine_scenario_budget_solves;
          Alcotest.test_case "artifact keys pinned" `Quick
            test_engine_artifact_keys_pinned;
          Alcotest.test_case "pool-size invariant" `Quick
            test_engine_deterministic_across_ctx_pool;
        ] );
    ]
