(* Tests for the benchmark problems: standalone checkers against known
   solutions and counterexamples, incremental cost/swap consistency against
   full recomputation (randomized), error projection sanity, and registry
   lookup. *)

let rng () = Lv_stats.Rng.create ~seed:20_26

(* ------------------------------------------------------------------ *)
(* Known solutions and counterexamples                                 *)
(* ------------------------------------------------------------------ *)

let test_all_interval_checker () =
  (* The paper's example for N = 8: (3,6,0,7,2,4,5,1). *)
  Alcotest.(check bool) "paper example" true
    (Lv_problems.All_interval.check [| 3; 6; 0; 7; 2; 4; 5; 1 |]);
  Alcotest.(check bool) "identity fails" false
    (Lv_problems.All_interval.check [| 0; 1; 2; 3; 4; 5; 6; 7 |]);
  Alcotest.(check bool) "not a permutation" false
    (Lv_problems.All_interval.check [| 3; 3; 0; 7; 2; 4; 5; 1 |]);
  Alcotest.(check bool) "out of range" false
    (Lv_problems.All_interval.check [| 3; 6; 0; 8; 2; 4; 5; 1 |]);
  Alcotest.(check bool) "too short" false (Lv_problems.All_interval.check [| 0; 1 |])

let test_costas_checker () =
  (* The paper's size-5 example [3,4,2,1,5], 0-based [2,3,1,0,4]. *)
  Alcotest.(check bool) "paper example" true
    (Lv_problems.Costas.check [| 2; 3; 1; 0; 4 |]);
  (* Identity has all first-row differences equal: not Costas. *)
  Alcotest.(check bool) "identity fails" false
    (Lv_problems.Costas.check [| 0; 1; 2; 3; 4 |]);
  Alcotest.(check bool) "not a permutation" false
    (Lv_problems.Costas.check [| 2; 2; 1; 0; 4 |])

let test_magic_square_checker () =
  (* Dürer's square (values 1..16, stored as value-1):
       16  3  2 13
        5 10 11  8
        9  6  7 12
        4 15 14  1  *)
  let durer =
    [| 15; 2; 1; 12; 4; 9; 10; 7; 8; 5; 6; 11; 3; 14; 13; 0 |]
  in
  Alcotest.(check bool) "Durer square" true (Lv_problems.Magic_square.check ~n:4 durer);
  Alcotest.(check bool) "identity fails" false
    (Lv_problems.Magic_square.check ~n:4 (Array.init 16 (fun i -> i)));
  Alcotest.(check bool) "wrong length" false
    (Lv_problems.Magic_square.check ~n:4 (Array.init 15 (fun i -> i)))

let test_queens_checker () =
  Alcotest.(check bool) "known 6-queens" true
    (Lv_problems.Queens.check [| 1; 3; 5; 0; 2; 4 |]);
  Alcotest.(check bool) "identity diagonal conflict" false
    (Lv_problems.Queens.check [| 0; 1; 2; 3; 4; 5 |])

let test_partition_checker () =
  (* n = 8: {1,4,6,7} and {2,3,5,8} both sum to 18 and 102 in squares.
     0-based values: first half holds 0,3,5,6. *)
  Alcotest.(check bool) "known solution" true
    (Lv_problems.Partition.check [| 0; 3; 5; 6; 1; 2; 4; 7 |]);
  Alcotest.(check bool) "identity fails" false
    (Lv_problems.Partition.check (Array.init 8 (fun i -> i)));
  Alcotest.(check bool) "bad size" false
    (Lv_problems.Partition.check (Array.init 12 (fun i -> i)));
  (match Lv_problems.Partition.create 10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n=10 accepted (no solution exists)")

(* ------------------------------------------------------------------ *)
(* Cost semantics: zero cost iff checker accepts                       *)
(* ------------------------------------------------------------------ *)

let packs : (string * (unit -> Lv_search.Csp.packed)) list =
  [
    ("all-interval", fun () -> Lv_problems.All_interval.pack 12);
    ("magic-square", fun () -> Lv_problems.Magic_square.pack 5);
    ("costas-array", fun () -> Lv_problems.Costas.pack 9);
    ("n-queens", fun () -> Lv_problems.Queens.pack 12);
    ("number-partitioning", fun () -> Lv_problems.Partition.pack 16);
  ]

(* The smallest instances: a Costas or All-Interval triangle row with a
   single pair, and a 3x3 square whose centre lies on both diagonals. *)
let minimal_packs : (string * (unit -> Lv_search.Csp.packed)) list =
  [
    ("costas-array 3", fun () -> Lv_problems.Costas.pack 3);
    ("all-interval 3", fun () -> Lv_problems.All_interval.pack 3);
    ("magic-square 3", fun () -> Lv_problems.Magic_square.pack 3);
  ]

(* [P.errors] must fill its buffer with exactly [var_error] of each
   variable. *)
let check_errors (type a) (module P : Lv_search.Csp.PROBLEM with type t = a) (inst : a) what =
  let sz = P.size inst in
  let buf = Array.make sz (-1) in
  P.errors inst buf;
  Alcotest.(check (array int)) (what ^ ": errors = var_error")
    (Array.init sz (P.var_error inst)) buf

let test_zero_cost_iff_solution () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      let r = rng () in
      (* Random configurations: cost = 0 must coincide with the checker. *)
      for _ = 1 to 200 do
        P.set_config inst (Lv_stats.Rng.permutation r (P.size inst));
        let zero = P.cost inst = 0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s cost-0 iff checker" name)
          zero (P.is_solution inst)
      done)
    packs

let test_cost_nonnegative () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      let r = rng () in
      for _ = 1 to 100 do
        P.set_config inst (Lv_stats.Rng.permutation r (P.size inst));
        if P.cost inst < 0 then Alcotest.failf "%s: negative cost" name
      done)
    packs

(* ------------------------------------------------------------------ *)
(* Incremental consistency                                             *)
(* ------------------------------------------------------------------ *)

let test_incremental_swap_consistency () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      let r = rng () in
      let sz = P.size inst in
      P.set_config inst (Lv_stats.Rng.permutation r sz);
      for _ = 1 to 1500 do
        let i = Lv_stats.Rng.int r sz and j = Lv_stats.Rng.int r sz in
        if i <> j then begin
          let before = P.cost inst in
          let predicted = P.cost_after_swap inst i j in
          Alcotest.(check int)
            (Printf.sprintf "%s query leaves cost" name)
            before (P.cost inst);
          (* Ground truth by full rebuild on the swapped configuration. *)
          let cfg = Array.copy (P.config inst) in
          let tmp = cfg.(i) in
          cfg.(i) <- cfg.(j);
          cfg.(j) <- tmp;
          let saved = Array.copy (P.config inst) in
          P.set_config inst cfg;
          let truth = P.cost inst in
          P.set_config inst saved;
          Alcotest.(check int) (Printf.sprintf "%s predicted" name) truth predicted;
          (* Committing must land on the same cost. *)
          P.do_swap inst i j;
          Alcotest.(check int) (Printf.sprintf "%s committed" name) truth (P.cost inst)
        end
      done)
    packs

(* Every ordered pair (i, j), i <> j, on a few random configurations: this
   covers adjacent swaps, the end positions 0 and n-1, both argument orders
   and, for Costas, every pair whose distance is a triangle row (where the
   pair left of [hi] starts at [lo]).  Each prediction must match the
   committed cost, and after every [do_swap] the cost and each variable
   error must equal a fresh [set_config] rebuild of the same configuration. *)
let test_swap_edge_cases () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      let r = rng () in
      let sz = P.size inst in
      let errors () = Array.init sz (P.var_error inst) in
      let check_against_rebuild what =
        check_errors (module P) inst (Printf.sprintf "%s %s" name what);
        let cost = P.cost inst and errs = errors () in
        P.set_config inst (Array.copy (P.config inst));
        Alcotest.(check int) (Printf.sprintf "%s %s: cost" name what) (P.cost inst) cost;
        Alcotest.(check (array int)) (Printf.sprintf "%s %s: errors" name what) (errors ()) errs
      in
      for _ = 1 to 3 do
        P.set_config inst (Lv_stats.Rng.permutation r sz);
        for i = 0 to sz - 1 do
          for j = 0 to sz - 1 do
            if i <> j then begin
              let what = Printf.sprintf "swap %d %d" i j in
              let cfg = Array.copy (P.config inst) in
              let predicted = P.cost_after_swap inst i j in
              Alcotest.(check int) (name ^ " symmetric " ^ what) predicted
                (P.cost_after_swap inst j i);
              P.do_swap inst i j;
              Alcotest.(check int) (name ^ " committed " ^ what) predicted (P.cost inst);
              check_against_rebuild what;
              P.do_swap inst j i;
              Alcotest.(check (array int)) (name ^ " swapped back " ^ what) cfg (P.config inst);
              check_against_rebuild (what ^ " undone")
            end
          done
        done
      done)
    packs

(* A swap of a position with itself is a no-op, in both the query and the
   commit. *)
let test_self_swap () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      let r = rng () in
      let sz = P.size inst in
      for _ = 1 to 5 do
        P.set_config inst (Lv_stats.Rng.permutation r sz);
        let cost = P.cost inst and cfg = Array.copy (P.config inst) in
        let errs = Array.init sz (P.var_error inst) in
        for i = 0 to sz - 1 do
          Alcotest.(check int) (Printf.sprintf "%s query %d %d" name i i) cost
            (P.cost_after_swap inst i i);
          P.do_swap inst i i;
          Alcotest.(check int) (Printf.sprintf "%s commit %d %d" name i i) cost (P.cost inst);
          Alcotest.(check (array int)) (name ^ " config") cfg (P.config inst);
          Alcotest.(check (array int)) (name ^ " errors") errs
            (Array.init sz (P.var_error inst))
        done
      done)
    packs

(* [best_partners] against the reference scan over [cost_after_swap], for
   every culprit of 40 random configurations: the best cost and the ordered
   tie list must agree, and the scan must leave the cost, every variable
   error and every pairwise swap cost as it found them.  The minimal sizes
   reach the edge cases where a triangle row holds a single pair. *)
let test_best_partners_matches_reference () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      let r = rng () in
      let sz = P.size inst in
      let fused = Array.make (sz + 1) 0 and reference = Array.make (sz + 1) 0 in
      let snapshot () =
        let errs = Array.make sz 0 in
        P.errors inst errs;
        ( P.cost inst,
          errs,
          Array.init sz (fun i -> Array.init sz (P.cost_after_swap inst i)) )
      in
      for _ = 1 to 40 do
        P.set_config inst (Lv_stats.Rng.permutation r sz);
        let cost, errs, pairs = snapshot () in
        for culprit = 0 to sz - 1 do
          let what = Printf.sprintf "%s culprit %d" name culprit in
          let best = P.best_partners inst culprit fused in
          let best_ref =
            Lv_search.Csp.best_partners_by P.cost_after_swap sz inst culprit reference
          in
          Alcotest.(check int) (what ^ ": best cost") best_ref best;
          Alcotest.(check (array int)) (what ^ ": ties")
            (Array.sub reference 0 (reference.(0) + 1))
            (Array.sub fused 0 (fused.(0) + 1));
          let cost', errs', pairs' = snapshot () in
          Alcotest.(check int) (what ^ ": cost unchanged") cost cost';
          Alcotest.(check (array int)) (what ^ ": errors unchanged") errs errs';
          Alcotest.(check (array (array int))) (what ^ ": swap costs unchanged") pairs pairs'
        done
      done)
    (packs @ minimal_packs)

(* [errors] against [var_error] on 40 random configurations per problem,
   minimal sizes included. *)
let test_errors_matches_var_error () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      let r = rng () in
      for k = 1 to 40 do
        P.set_config inst (Lv_stats.Rng.permutation r (P.size inst));
        check_errors (module P) inst (Printf.sprintf "%s config %d" name k)
      done)
    (packs @ minimal_packs)

let test_do_swap_swaps_config () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      let r = rng () in
      let sz = P.size inst in
      P.set_config inst (Lv_stats.Rng.permutation r sz);
      let before = Array.copy (P.config inst) in
      P.do_swap inst 0 1;
      let after = P.config inst in
      Alcotest.(check int) (name ^ " position 0") before.(1) after.(0);
      Alcotest.(check int) (name ^ " position 1") before.(0) after.(1);
      for k = 2 to sz - 1 do
        Alcotest.(check int) (name ^ " untouched") before.(k) after.(k)
      done)
    packs

let test_var_error_sanity () =
  (* At a solution every variable error is 0; at a broken configuration at
     least one is positive (errors localize the violations). *)
  List.iter
    (fun (name, pack, solution) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      P.set_config inst solution;
      Alcotest.(check int) (name ^ " solution cost") 0 (P.cost inst);
      for i = 0 to P.size inst - 1 do
        Alcotest.(check int) (name ^ " zero error at solution") 0 (P.var_error inst i)
      done)
    [
      ( "all-interval",
        (fun () -> Lv_problems.All_interval.pack 8),
        [| 3; 6; 0; 7; 2; 4; 5; 1 |] );
      ( "costas-array",
        (fun () -> Lv_problems.Costas.pack 5),
        [| 2; 3; 1; 0; 4 |] );
      ( "magic-square",
        (fun () -> Lv_problems.Magic_square.pack 4),
        [| 15; 2; 1; 12; 4; 9; 10; 7; 8; 5; 6; 11; 3; 14; 13; 0 |] );
    ]

let test_var_error_positive_when_broken () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      let r = rng () in
      let sz = P.size inst in
      let found_positive = ref false in
      for _ = 1 to 50 do
        P.set_config inst (Lv_stats.Rng.permutation r sz);
        if P.cost inst > 0 then begin
          let any = ref false in
          for i = 0 to sz - 1 do
            if P.var_error inst i > 0 then any := true
          done;
          if !any then found_positive := true
          else
            Alcotest.failf "%s: positive cost but all variable errors zero" name
        end
      done;
      Alcotest.(check bool) (name ^ " exercised") true !found_positive)
    packs

let test_set_config_validates_size () =
  List.iter
    (fun (name, pack) ->
      let (Lv_search.Csp.Packed ((module P), inst)) = pack () in
      match P.set_config inst [| 0 |] with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: undersized config accepted" name)
    packs

let test_create_validates () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "all-interval 2" (fun () -> Lv_problems.All_interval.create 2);
  expect_invalid "magic-square 2" (fun () -> Lv_problems.Magic_square.create 2);
  expect_invalid "costas 2" (fun () -> Lv_problems.Costas.create 2);
  expect_invalid "queens 3" (fun () -> Lv_problems.Queens.create 3)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_lookup () =
  Alcotest.(check int) "5 problems" 5 (List.length Lv_problems.Registry.all);
  List.iter
    (fun name ->
      (* number-partitioning only admits multiples of 8. *)
      let size = if name = "number-partitioning" then 16 else 10 in
      match Lv_problems.Registry.find name with
      | Some f ->
        let packed = f size in
        Alcotest.(check string) "name round-trip" name (Lv_search.Csp.packed_name packed)
      | None -> Alcotest.failf "lookup failed for %s" name)
    Lv_problems.Registry.names;
  (* Aliases and prefixes. *)
  Alcotest.(check bool) "alias ms" true (Lv_problems.Registry.find "ms" <> None);
  Alcotest.(check bool) "alias costas" true (Lv_problems.Registry.find "costas" <> None);
  Alcotest.(check bool) "prefix all-i" true (Lv_problems.Registry.find "all-i" <> None);
  Alcotest.(check bool) "unknown" true (Lv_problems.Registry.find "tsp" = None)

let test_packed_size () =
  Alcotest.(check int) "ai size" 20
    (Lv_search.Csp.packed_size (Lv_problems.All_interval.pack 20));
  Alcotest.(check int) "ms size n^2" 25
    (Lv_search.Csp.packed_size (Lv_problems.Magic_square.pack 5))

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let permutation_gen n =
  QCheck.Gen.(
    map
      (fun seed ->
        let r = Lv_stats.Rng.create ~seed in
        Lv_stats.Rng.permutation r n)
      int)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"all-interval: cost 0 iff check" ~count:300
      (make (permutation_gen 10))
      (fun perm ->
        let inst = Lv_problems.All_interval.create 10 in
        Lv_problems.All_interval.set_config inst perm;
        Lv_problems.All_interval.cost inst = 0 = Lv_problems.All_interval.check perm);
    Test.make ~name:"costas: cost 0 iff check" ~count:300
      (make (permutation_gen 8))
      (fun perm ->
        let inst = Lv_problems.Costas.create 8 in
        Lv_problems.Costas.set_config inst perm;
        Lv_problems.Costas.cost inst = 0 = Lv_problems.Costas.check perm);
    Test.make ~name:"queens: cost 0 iff check" ~count:300
      (make (permutation_gen 9))
      (fun perm ->
        let inst = Lv_problems.Queens.create 9 in
        Lv_problems.Queens.set_config inst perm;
        Lv_problems.Queens.cost inst = 0 = Lv_problems.Queens.check perm);
    Test.make ~name:"magic-square: swap then swap back restores cost" ~count:200
      (make
         QCheck.Gen.(
           map3
             (fun seed i j -> (seed, i, j))
             int (int_range 0 24) (int_range 0 24)))
      (fun (seed, i, j) ->
        let r = Lv_stats.Rng.create ~seed in
        let inst = Lv_problems.Magic_square.create 5 in
        Lv_problems.Magic_square.set_config inst (Lv_stats.Rng.permutation r 25);
        let c0 = Lv_problems.Magic_square.cost inst in
        Lv_problems.Magic_square.do_swap inst i j;
        Lv_problems.Magic_square.do_swap inst i j;
        Lv_problems.Magic_square.cost inst = c0);
    Test.make ~name:"costas: swap involutive on cost and config" ~count:200
      (make
         QCheck.Gen.(
           map3
             (fun seed i j -> (seed, i, j))
             int (int_range 0 9) (int_range 0 9)))
      (fun (seed, i, j) ->
        let r = Lv_stats.Rng.create ~seed in
        let inst = Lv_problems.Costas.create 10 in
        Lv_problems.Costas.set_config inst (Lv_stats.Rng.permutation r 10);
        let c0 = Lv_problems.Costas.cost inst in
        let cfg0 = Array.copy (Lv_problems.Costas.config inst) in
        Lv_problems.Costas.do_swap inst i j;
        Lv_problems.Costas.do_swap inst i j;
        Lv_problems.Costas.cost inst = c0 && Lv_problems.Costas.config inst = cfg0);
  ]

let () =
  Alcotest.run "lv_problems"
    [
      ( "checkers",
        [
          Alcotest.test_case "all-interval" `Quick test_all_interval_checker;
          Alcotest.test_case "costas" `Quick test_costas_checker;
          Alcotest.test_case "magic-square (Durer)" `Quick test_magic_square_checker;
          Alcotest.test_case "queens" `Quick test_queens_checker;
          Alcotest.test_case "number-partitioning" `Quick test_partition_checker;
        ] );
      ( "cost semantics",
        [
          Alcotest.test_case "zero cost iff solution" `Quick test_zero_cost_iff_solution;
          Alcotest.test_case "cost nonnegative" `Quick test_cost_nonnegative;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "swap consistency" `Quick test_incremental_swap_consistency;
          Alcotest.test_case "do_swap swaps config" `Quick test_do_swap_swaps_config;
          Alcotest.test_case "swap edge cases" `Quick test_swap_edge_cases;
          Alcotest.test_case "self swap" `Quick test_self_swap;
          Alcotest.test_case "best_partners matches the reference scan" `Quick
            test_best_partners_matches_reference;
        ] );
      ( "errors",
        [
          Alcotest.test_case "zero at solutions" `Quick test_var_error_sanity;
          Alcotest.test_case "positive when broken" `Quick test_var_error_positive_when_broken;
          Alcotest.test_case "errors matches var_error" `Quick test_errors_matches_var_error;
        ] );
      ( "validation",
        [
          Alcotest.test_case "set_config size" `Quick test_set_config_validates_size;
          Alcotest.test_case "create bounds" `Quick test_create_validates;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "packed size" `Quick test_packed_size;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
