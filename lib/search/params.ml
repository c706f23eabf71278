type t = {
  tabu_tenure : int;
  reset_limit : int;
  reset_fraction : float;
  restart_limit : int;
  max_iterations : int;
  prob_select_loc_min : float;
}

let default =
  {
    tabu_tenure = 10;
    reset_limit = 0;
    reset_fraction = 0.25;
    restart_limit = max_int;
    max_iterations = max_int;
    prob_select_loc_min = 0.5;
  }

let validate ~n_vars p =
  if n_vars <= 1 then invalid_arg "Params.validate: need at least 2 variables";
  if p.tabu_tenure < 0 then invalid_arg "Params.validate: negative tabu_tenure";
  if not (p.reset_fraction > 0. && p.reset_fraction <= 1.) then
    invalid_arg "Params.validate: reset_fraction must lie in (0, 1]";
  if not (p.prob_select_loc_min >= 0. && p.prob_select_loc_min <= 1.) then
    invalid_arg "Params.validate: prob_select_loc_min must lie in [0, 1]";
  if p.restart_limit <= 0 then invalid_arg "Params.validate: restart_limit must be positive";
  if p.max_iterations <= 0 then invalid_arg "Params.validate: max_iterations must be positive";
  let reset_limit =
    if p.reset_limit > 0 then p.reset_limit else Int.max 2 (n_vars / 10)
  in
  { p with reset_limit }
