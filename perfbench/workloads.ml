(* The three workloads: which scenarios a pass runs, and how.

   Every scenario seed derives from the workload seed and the run's
   segment, so one seed gives one set of inputs.  [Tiny] shrinks every size
   for the self-test. *)

module Scenario = Lv_engine.Scenario
module Validate = Lv_validate.Validate

type kind = Cold_paper | Validate_queens | Warm_rerun

let kinds =
  [ ("cold-paper", Cold_paper); ("validate-queens", Validate_queens);
    ("warm-rerun", Warm_rerun) ]

let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

type scale = Full | Tiny

type t = {
  kind : kind;
  scenarios : Scenario.t list;
  calls : int;  (** Engine.run calls per pass, cycling through [scenarios] *)
  store : [ `None | `Fresh | `Warm ];
      (** no artifact store, a fresh one per pass, or one filled at set-up *)
}

let default_seed = 1

let cores = [ 2; 4; 8; 16; 32; 64 ]

(* The paper's families that predict a speed-up curve; gaussian and Levy
   laws have none, and a scenario whose best law is one of them fails. *)
let candidates =
  [ "exponential"; "shifted-exponential"; "lognormal"; "shifted-lognormal" ]

(* The validating workloads fix each scenario's law family, so that on
   every seed one law goes through MLE and quadrature and the other through
   the closed forms. *)
let lognormal = [ "lognormal"; "shifted-lognormal" ]
let exponential = [ "exponential"; "shifted-exponential" ]

(* Segment [s] of workload seed [seed] gives its [k]-th scenario the seed
   [1000 seed + 10 s + k]. *)
let make ~scale ~seed ?(segment = 0) kind =
  let full = scale = Full in
  let pick f t = if full then f else t in
  let scenario k ?(candidates = candidates) ?max_iters ?validate ~runs problem size =
    Scenario.make
      ~name:(Printf.sprintf "%s-%d" problem size)
      ~runs ~seed:((seed * 1000) + (10 * segment) + k) ~cores ~candidates ?max_iters
      ?stages:
        (Option.map (fun _ -> Scenario.all_stages) validate)
      ?validate ~problem ~size ()
  in
  let validation ~replicates ~folds ~trials =
    { Validate.replicates; folds; level = 0.9; trials }
  in
  match kind with
  | Cold_paper ->
    {
      kind;
      scenarios =
        [
          scenario 0 ~runs:(pick 240 16) "costas-array" 12;
          scenario 1 ~runs:(pick 240 16) "all-interval" 14;
          (* The budget censors the slowest few percent of runs. *)
          scenario 2 ~runs:(pick 40 6) ~max_iters:15000 "magic-square" 8;
        ];
      calls = 3;
      store = `Fresh;
    }
  | Validate_queens ->
    let validate =
      pick
        (validation ~replicates:50 ~folds:5 ~trials:4)
        (validation ~replicates:8 ~folds:2 ~trials:1)
    in
    {
      kind;
      scenarios =
        [
          scenario 0 ~candidates:lognormal ~validate ~runs:(pick 300 24) "n-queens" 30;
          scenario 1 ~candidates:exponential ~validate ~runs:(pick 300 24) "costas-array" 10;
        ];
      calls = 2;
      store = `None;
    }
  | Warm_rerun ->
    let validate = validation ~replicates:4 ~folds:2 ~trials:1 in
    {
      kind;
      scenarios =
        [
          scenario 0 ~candidates:lognormal ~validate ~runs:(pick 2000 24) "n-queens" 30;
          scenario 1 ~candidates:exponential ~validate ~runs:(pick 2000 24) "costas-array" 10;
        ];
      calls = pick 100 4;
      store = `Warm;
    }

(* The Engine.run calls of one pass, in order. *)
let calls w =
  let n = List.length w.scenarios in
  List.init w.calls (fun i -> List.nth w.scenarios (i mod n))

(* The minimal warm-up run on a one-domain pool before any timing: it forces
   every process-global lazy value from a single worker. *)
let warm_up_scenario =
  Scenario.make ~name:"warm-up" ~runs:100 ~seed:1 ~cores:[ 2; 4 ]
    ~candidates
    ~stages:Scenario.all_stages
    ~validate:{ Validate.replicates = 10; folds = 2; level = 0.9; trials = 1 }
    ~problem:"n-queens" ~size:30 ()
