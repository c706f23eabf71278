(* Tests for the Adaptive Search solver: parameter validation, determinism,
   solution correctness across problems, the stop hook, restart/reset
   bookkeeping, and Las Vegas variability. *)

open Lv_search

let default_with f = f Params.default

let solve_queens ?params ~seed n =
  let rng = Lv_stats.Rng.create ~seed in
  Adaptive_search.solve_packed ?params ~rng (Lv_problems.Queens.pack n)

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_validate_defaults () =
  let p = Params.validate ~n_vars:100 Params.default in
  Alcotest.(check int) "reset limit resolved" 10 p.Params.reset_limit;
  let p = Params.validate ~n_vars:5 Params.default in
  Alcotest.(check int) "reset limit floor" 2 p.Params.reset_limit

let test_params_validate_rejects () =
  let expect_invalid name p =
    match Params.validate ~n_vars:10 p with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "negative tenure" (default_with (fun d -> { d with Params.tabu_tenure = -1 }));
  expect_invalid "zero reset fraction"
    (default_with (fun d -> { d with Params.reset_fraction = 0. }));
  expect_invalid "reset fraction > 1"
    (default_with (fun d -> { d with Params.reset_fraction = 1.5 }));
  expect_invalid "walk prob > 1"
    (default_with (fun d -> { d with Params.prob_select_loc_min = 1.5 }));
  expect_invalid "zero restart"
    (default_with (fun d -> { d with Params.restart_limit = 0 }));
  expect_invalid "zero max iterations"
    (default_with (fun d -> { d with Params.max_iterations = 0 }));
  (match Params.validate ~n_vars:1 Params.default with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n_vars=1 accepted")

let test_params_explicit_reset_limit_kept () =
  let p =
    Params.validate ~n_vars:100
      (default_with (fun d -> { d with Params.reset_limit = 33 }))
  in
  Alcotest.(check int) "explicit kept" 33 p.Params.reset_limit

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let test_solves_queens () =
  let r = solve_queens ~seed:1 30 in
  Alcotest.(check bool) "solved" true (Adaptive_search.solved r);
  match r.Adaptive_search.outcome with
  | Adaptive_search.Solved cfg ->
    Alcotest.(check bool) "valid solution" true (Lv_problems.Queens.check cfg)
  | Adaptive_search.Exhausted _ -> Alcotest.fail "not solved"

let test_deterministic_given_seed () =
  let r1 = solve_queens ~seed:42 20 and r2 = solve_queens ~seed:42 20 in
  Alcotest.(check int) "same iterations"
    (Adaptive_search.iterations r1)
    (Adaptive_search.iterations r2);
  match (r1.Adaptive_search.outcome, r2.Adaptive_search.outcome) with
  | Adaptive_search.Solved a, Adaptive_search.Solved b ->
    Alcotest.(check (array int)) "same solution" a b
  | _ -> Alcotest.fail "both should solve"

let test_seeds_vary_runtime () =
  (* Las Vegas: different seeds should give many distinct iteration counts. *)
  let iters =
    List.init 20 (fun s -> Adaptive_search.iterations (solve_queens ~seed:s 30))
  in
  let distinct = List.sort_uniq compare iters in
  Alcotest.(check bool) "runtimes vary" true (List.length distinct > 5)

let test_max_iterations_respected () =
  let params = default_with (fun d -> { d with Params.max_iterations = 3 }) in
  (* All-interval 40 cannot be solved in 3 iterations. *)
  let rng = Lv_stats.Rng.create ~seed:5 in
  let r = Adaptive_search.solve_packed ~params ~rng (Lv_problems.All_interval.pack 40) in
  Alcotest.(check bool) "not solved" false (Adaptive_search.solved r);
  Alcotest.(check bool) "stopped at budget" true (Adaptive_search.iterations r <= 3);
  match r.Adaptive_search.outcome with
  | Adaptive_search.Exhausted best -> Alcotest.(check bool) "best cost positive" true (best > 0)
  | Adaptive_search.Solved _ -> Alcotest.fail "impossible solve"

let test_stop_hook () =
  (* A stop that fires immediately must end the run at the first poll
     (iteration 1024 at the latest). *)
  let rng = Lv_stats.Rng.create ~seed:3 in
  let r =
    Adaptive_search.solve_packed
      ~stop:(fun () -> true)
      ~rng
      (Lv_problems.All_interval.pack 60)
  in
  Alcotest.(check bool) "aborted early" true (Adaptive_search.iterations r <= 2048)

let test_restart_counted () =
  let params =
    default_with (fun d ->
        { d with Params.restart_limit = 50; max_iterations = 2_000 })
  in
  let rng = Lv_stats.Rng.create ~seed:7 in
  let r = Adaptive_search.solve_packed ~params ~rng (Lv_problems.All_interval.pack 40) in
  Alcotest.(check bool) "restarts happened" true
    (r.Adaptive_search.stats.Adaptive_search.restarts > 0
    || Adaptive_search.solved r)

let test_stats_consistency () =
  let r = solve_queens ~seed:11 40 in
  let s = r.Adaptive_search.stats in
  Alcotest.(check bool) "swaps <= iterations" true
    (s.Adaptive_search.swaps <= s.Adaptive_search.iterations);
  Alcotest.(check bool) "plateau <= swaps" true
    (s.Adaptive_search.plateau_moves <= s.Adaptive_search.swaps);
  Alcotest.(check bool) "nonnegative" true
    (s.Adaptive_search.resets >= 0 && s.Adaptive_search.restarts >= 0
   && s.Adaptive_search.local_minima >= 0)

let test_solves_every_problem () =
  List.iter
    (fun (name, pack) ->
      let params = Lv_problems.Defaults.params name 0 in
      let rng = Lv_stats.Rng.create ~seed:17 in
      let packed = pack () in
      let r = Adaptive_search.solve_packed ~params ~rng packed in
      Alcotest.(check bool) (name ^ " solved") true (Adaptive_search.solved r);
      let (Csp.Packed ((module P), inst)) = packed in
      Alcotest.(check bool) (name ^ " checker agrees") true (P.is_solution inst))
    [
      ("all-interval", fun () -> Lv_problems.All_interval.pack 12);
      ("magic-square", fun () -> Lv_problems.Magic_square.pack 5);
      ("costas-array", fun () -> Lv_problems.Costas.pack 10);
      ("n-queens", fun () -> Lv_problems.Queens.pack 25);
      ("number-partitioning", fun () -> Lv_problems.Partition.pack 24);
    ]

let test_final_instance_state_matches_outcome () =
  (* After a Solved outcome the instance must hold that configuration. *)
  let packed = Lv_problems.Costas.pack 10 in
  let rng = Lv_stats.Rng.create ~seed:23 in
  let r = Adaptive_search.solve_packed ~rng packed in
  match r.Adaptive_search.outcome with
  | Adaptive_search.Solved cfg ->
    let (Csp.Packed ((module P), inst)) = packed in
    Alcotest.(check (array int)) "config preserved" cfg (P.config inst);
    Alcotest.(check int) "cost zero" 0 (P.cost inst)
  | Adaptive_search.Exhausted _ -> Alcotest.fail "costas 10 should solve"

let test_functor_and_packed_agree () =
  let module S = Adaptive_search.Make (Lv_problems.Queens) in
  let inst = Lv_problems.Queens.create 20 in
  let r1 = S.solve ~rng:(Lv_stats.Rng.create ~seed:31) inst in
  let r2 =
    Adaptive_search.solve_packed
      ~rng:(Lv_stats.Rng.create ~seed:31)
      (Lv_problems.Queens.pack 20)
  in
  Alcotest.(check int) "same trajectory"
    (Adaptive_search.iterations r1)
    (Adaptive_search.iterations r2)

(* ------------------------------------------------------------------ *)
(* Golden trajectories                                                 *)
(* ------------------------------------------------------------------ *)

(* Move statistics and final configurations of fixed-seed runs with the
   tuned per-problem parameters.  The iteration counts are the runtime
   distributions the paper fits, so a change to a problem's incremental
   evaluation or to the generator must leave every one of these runs
   exactly where it was. *)
let golden_runs =
  Adaptive_search.
    [
      ( "costas-array", 12, 1,
        { iterations = 150; swaps = 108; plateau_moves = 16;
          local_minima = 89; resets = 21; restarts = 0 },
        true, [| 3; 4; 7; 5; 0; 8; 2; 6; 11; 1; 10; 9 |] );
      ( "costas-array", 12, 2,
        { iterations = 53; swaps = 41; plateau_moves = 6;
          local_minima = 30; resets = 6; restarts = 0 },
        true, [| 9; 3; 0; 1; 8; 11; 4; 10; 6; 5; 7; 2 |] );
      ( "costas-array", 12, 3,
        { iterations = 367; swaps = 238; plateau_moves = 36;
          local_minima = 218; resets = 64; restarts = 0 },
        true, [| 6; 9; 2; 1; 7; 4; 11; 3; 5; 10; 0; 8 |] );
      ( "all-interval", 14, 1,
        { iterations = 4300; swaps = 3642; plateau_moves = 2148;
          local_minima = 3308; resets = 301; restarts = 0 },
        true, [| 7; 5; 2; 12; 1; 13; 0; 9; 8; 4; 10; 3; 11; 6 |] );
      ( "all-interval", 14, 2,
        { iterations = 69; swaps = 62; plateau_moves = 38;
          local_minima = 52; resets = 3; restarts = 0 },
        true, [| 4; 10; 6; 5; 8; 1; 13; 0; 11; 3; 12; 2; 7; 9 |] );
      ( "all-interval", 14, 3,
        { iterations = 208; swaps = 173; plateau_moves = 110;
          local_minima = 160; resets = 15; restarts = 0 },
        true, [| 3; 13; 0; 12; 1; 7; 8; 6; 9; 5; 10; 2; 11; 4 |] );
      ( "magic-square", 8, 1,
        { iterations = 8862; swaps = 7669; plateau_moves = 1468;
          local_minima = 5719; resets = 5; restarts = 0 },
        true,
        [|
          39; 23; 41; 6; 5; 63; 38; 37; 1; 18; 35; 56; 34; 52; 44; 12; 32; 43;
          22; 59; 60; 8; 3; 25; 17; 46; 13; 45; 40; 20; 50; 21; 58; 4; 42; 16;
          51; 7; 26; 48; 28; 29; 24; 33; 2; 62; 19; 55; 47; 53; 14; 27; 11; 31;
          15; 54; 30; 36; 61; 10; 49; 9; 57; 0
        |] );
      ( "magic-square", 8, 2,
        { iterations = 15000; swaps = 13137; plateau_moves = 2384;
          local_minima = 9617; resets = 4; restarts = 0 },
        false,
        [|
          41; 42; 53; 56; 12; 17; 30; 1; 62; 3; 28; 20; 8; 58; 47; 27; 6; 25;
          49; 52; 0; 35; 37; 48; 51; 21; 43; 15; 44; 16; 45; 18; 7; 60; 9; 5;
          63; 46; 10; 50; 38; 24; 33; 39; 57; 19; 29; 14; 13; 55; 11; 4; 32; 59;
          23; 54; 34; 22; 26; 61; 36; 2; 31; 40
        |] );
      ( "magic-square", 8, 3,
        { iterations = 15000; swaps = 13119; plateau_moves = 2029;
          local_minima = 9402; resets = 6; restarts = 0 },
        false,
        [|
          11; 6; 16; 46; 17; 52; 43; 61; 53; 33; 30; 2; 51; 18; 60; 5; 10; 57;
          41; 23; 62; 12; 7; 40; 48; 36; 15; 32; 9; 54; 14; 44; 21; 55; 47; 59;
          3; 39; 28; 1; 31; 37; 20; 56; 34; 45; 0; 29; 50; 4; 58; 26; 35; 19;
          38; 22; 27; 24; 25; 8; 42; 13; 63; 49
        |] );
      ( "n-queens", 30, 1,
        { iterations = 13; swaps = 11; plateau_moves = 1;
          local_minima = 3; resets = 0; restarts = 0 },
        true,
        [|
          1; 20; 17; 15; 13; 0; 22; 29; 12; 5; 27; 21; 19; 16; 2; 28; 6; 10; 23;
          25; 14; 4; 8; 3; 9; 24; 26; 11; 7; 18
        |] );
      ( "n-queens", 30, 2,
        { iterations = 9; swaps = 8; plateau_moves = 0;
          local_minima = 1; resets = 0; restarts = 0 },
        true,
        [|
          23; 12; 16; 4; 7; 14; 18; 5; 27; 0; 6; 19; 28; 20; 29; 10; 13; 9; 24;
          3; 25; 11; 22; 8; 26; 2; 15; 1; 21; 17
        |] );
      ( "n-queens", 30, 3,
        { iterations = 30; swaps = 23; plateau_moves = 4;
          local_minima = 10; resets = 2; restarts = 0 },
        true,
        [|
          9; 25; 4; 21; 12; 20; 23; 28; 0; 13; 8; 16; 7; 1; 17; 26; 22; 29; 5;
          2; 10; 15; 11; 19; 24; 3; 6; 18; 27; 14
        |] );
      ( "costas-array", 10, 1,
        { iterations = 36; swaps = 25; plateau_moves = 4;
          local_minima = 22; resets = 5; restarts = 0 },
        true, [| 1; 0; 8; 9; 4; 6; 2; 5; 3; 7 |] );
      ( "costas-array", 10, 2,
        { iterations = 95; swaps = 62; plateau_moves = 19;
          local_minima = 64; resets = 16; restarts = 0 },
        true, [| 6; 4; 3; 0; 5; 7; 8; 2; 9; 1 |] );
      ( "costas-array", 10, 3,
        { iterations = 24; swaps = 15; plateau_moves = 0;
          local_minima = 13; resets = 4; restarts = 0 },
        true, [| 1; 4; 8; 5; 6; 2; 0; 7; 9; 3 |] );
    ]

(* Fixed-seed runs with non-default restart and reset settings, so the
   restart path and the partial reset at a large fraction are pinned too.
   Each entry adjusts the tuned per-problem parameters. *)
let golden_runs_params =
  Adaptive_search.
    [
      ( "costas-array", 12, 1,
        (fun p -> { p with Params.restart_limit = 40 }),
        { iterations = 256; swaps = 183; plateau_moves = 19;
          local_minima = 140; resets = 30; restarts = 6 },
        true, [| 8; 6; 5; 10; 0; 4; 1; 9; 11; 7; 2; 3 |] );
      ( "all-interval", 14, 1,
        (fun p -> { p with Params.restart_limit = 300 }),
        { iterations = 1130; swaps = 955; plateau_moves = 554;
          local_minima = 857; resets = 79; restarts = 3 },
        true, [| 5; 9; 3; 12; 0; 13; 2; 10; 8; 7; 4; 11; 1; 6 |] );
      ( "n-queens", 30, 3,
        (fun p -> { p with Params.reset_limit = 3; reset_fraction = 0.5 }),
        { iterations = 62; swaps = 46; plateau_moves = 5;
          local_minima = 20; resets = 5; restarts = 0 },
        true,
        [|
          28; 7; 4; 13; 15; 12; 1; 11; 26; 17; 22; 2; 29; 14; 23; 9; 6; 3; 5;
          16; 18; 10; 27; 19; 24; 0; 25; 20; 8; 21
        |] );
      ( "all-interval", 14, 2,
        (fun p -> { p with Params.reset_limit = 3; reset_fraction = 0.5 }),
        { iterations = 533; swaps = 455; plateau_moves = 249;
          local_minima = 412; resets = 16; restarts = 0 },
        true, [| 7; 6; 9; 5; 10; 4; 2; 11; 3; 13; 0; 12; 1; 8 |] );
    ]

let golden_instance name size =
  match name with
  | "costas-array" -> Lv_problems.Costas.pack size
  | "all-interval" -> Lv_problems.All_interval.pack size
  | "magic-square" -> Lv_problems.Magic_square.pack size
  | "n-queens" -> Lv_problems.Queens.pack size
  | _ -> invalid_arg name

let test_golden_trajectories () =
  List.iter
    (fun (name, size, seed, adjust, stats, solved, final) ->
      let label = Printf.sprintf "%s %d seed %d" name size seed in
      let params = adjust (Lv_problems.Defaults.params name size) in
      let params =
        if name = "magic-square" then { params with Params.max_iterations = 15_000 } else params
      in
      let (Csp.Packed ((module P), inst) as packed) = golden_instance name size in
      let r = Adaptive_search.solve_packed ~params ~rng:(Lv_stats.Rng.create ~seed) packed in
      let s = r.Adaptive_search.stats in
      Alcotest.(check (list int)) (label ^ " stats")
        Adaptive_search.
          [
            stats.iterations; stats.swaps; stats.plateau_moves; stats.local_minima;
            stats.resets; stats.restarts;
          ]
        Adaptive_search.
          [ s.iterations; s.swaps; s.plateau_moves; s.local_minima; s.resets; s.restarts ];
      Alcotest.(check bool) (label ^ " solved") solved (Adaptive_search.solved r);
      Alcotest.(check (array int)) (label ^ " final configuration") final (P.config inst))
    (List.map (fun (name, size, seed, stats, solved, final) ->
         (name, size, seed, Fun.id, stats, solved, final))
       golden_runs
    @ golden_runs_params)

(* ------------------------------------------------------------------ *)
(* Defaults registry                                                   *)
(* ------------------------------------------------------------------ *)

let test_defaults_known_problems () =
  List.iter
    (fun name ->
      let p = Lv_problems.Defaults.params name 10 in
      ignore (Params.validate ~n_vars:10 p))
    Lv_problems.Registry.names;
  let p = Lv_problems.Defaults.params "magic-square" 10 in
  Alcotest.(check (float 1e-12)) "ms walk" 0.8 p.Params.prob_select_loc_min;
  let p = Lv_problems.Defaults.params "unknown-problem" 10 in
  Alcotest.(check (float 1e-12)) "fallback walk" 0.5 p.Params.prob_select_loc_min

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"queens solutions are always valid" ~count:15
      (int_range 0 10_000)
      (fun seed ->
        let r = solve_queens ~seed 15 in
        match r.Adaptive_search.outcome with
        | Adaptive_search.Solved cfg -> Lv_problems.Queens.check cfg
        | Adaptive_search.Exhausted _ -> false);
    Test.make ~name:"iteration budget is an upper bound" ~count:15
      (pair (int_range 0 1000) (int_range 1 500))
      (fun (seed, budget) ->
        let params =
          default_with (fun d -> { d with Params.max_iterations = budget })
        in
        let rng = Lv_stats.Rng.create ~seed in
        let r =
          Adaptive_search.solve_packed ~params ~rng (Lv_problems.All_interval.pack 30)
        in
        Adaptive_search.iterations r <= budget);
  ]

let () =
  Alcotest.run "lv_search"
    [
      ( "params",
        [
          Alcotest.test_case "validate defaults" `Quick test_params_validate_defaults;
          Alcotest.test_case "validate rejects" `Quick test_params_validate_rejects;
          Alcotest.test_case "explicit reset limit" `Quick test_params_explicit_reset_limit_kept;
        ] );
      ( "solver",
        [
          Alcotest.test_case "solves queens" `Quick test_solves_queens;
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic_given_seed;
          Alcotest.test_case "Las Vegas variability" `Quick test_seeds_vary_runtime;
          Alcotest.test_case "max iterations" `Quick test_max_iterations_respected;
          Alcotest.test_case "stop hook" `Quick test_stop_hook;
          Alcotest.test_case "restart bookkeeping" `Quick test_restart_counted;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "solves every problem" `Quick test_solves_every_problem;
          Alcotest.test_case "final state matches outcome" `Quick test_final_instance_state_matches_outcome;
          Alcotest.test_case "functor = packed" `Quick test_functor_and_packed_agree;
          Alcotest.test_case "golden trajectories" `Quick test_golden_trajectories;
        ] );
      ( "defaults",
        [ Alcotest.test_case "per-problem params" `Quick test_defaults_known_problems ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
