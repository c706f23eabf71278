open Lv_search

let params ?walk ?max_iterations name size =
  let d = Params.default in
  let p =
    match name with
    | "magic-square" -> { d with Params.prob_select_loc_min = 0.8 }
    | "all-interval" ->
      ignore size;
      { d with Params.prob_select_loc_min = 0.8 }
    | "costas-array" -> { d with Params.prob_select_loc_min = 0.5 }
    | "n-queens" -> { d with Params.prob_select_loc_min = 0.5 }
    | "number-partitioning" ->
      (* Uniform error projection: escape plateaus by walking often. *)
      { d with Params.prob_select_loc_min = 0.8 }
    | _ -> d
  in
  let p =
    match walk with
    | Some w -> { p with Params.prob_select_loc_min = w }
    | None -> p
  in
  match max_iterations with
  | Some n -> { p with Params.max_iterations = n }
  | None -> p
