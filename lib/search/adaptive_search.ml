type stats = {
  iterations : int;
  swaps : int;
  plateau_moves : int;
  local_minima : int;
  resets : int;
  restarts : int;
}

type outcome = Solved of int array | Exhausted of int

type result = { outcome : outcome; stats : stats }

let solved r = match r.outcome with Solved _ -> true | Exhausted _ -> false
let iterations r = r.stats.iterations

let pp_stats ppf s =
  Format.fprintf ppf
    "iters=%d swaps=%d plateau=%d locmin=%d resets=%d restarts=%d" s.iterations
    s.swaps s.plateau_moves s.local_minima s.resets s.restarts

module Make (P : Csp.PROBLEM) = struct
  (* Mutable solver state, allocated once per solve, except [reset_cfg]:
     it is allocated on the first partial reset, since most short runs never
     reset. *)
  type state = {
    n : int;
    frozen_until : int array;          (* iteration until which var i is tabu *)
    mutable n_frozen : int;            (* live freezes, recounted every scan *)
    errs : int array;                  (* [P.errors] buffer, n cells *)
    candidates : int array;            (* scratch for tie-breaking, n + 1 cells *)
    mutable reset_cfg : int array;     (* next configuration, n cells *)
  }

  let fresh_config st rng = Lv_stats.Rng.permutation rng st.n

  (* Worst non-frozen variable by projected error; ties broken uniformly.
     Returns -1 when every positive-error variable is frozen.  The same pass
     recounts the live freezes: a variable is frozen at [iter] exactly when
     it is skipped here. *)
  let select_culprit st inst rng iter =
    let errs = st.errs and frozen_until = st.frozen_until and candidates = st.candidates in
    P.errors inst errs;
    let best_err = ref 0 and n_ties = ref 0 and live = ref 0 in
    for i = 0 to st.n - 1 do
      if frozen_until.(i) <= iter then begin
        let e = errs.(i) in
        if e > !best_err then begin
          best_err := e;
          candidates.(0) <- i;
          n_ties := 1
        end
        else if e = !best_err && e > 0 then begin
          candidates.(!n_ties) <- i;
          incr n_ties
        end
      end
      else incr live
    done;
    st.n_frozen <- !live;
    if !n_ties = 0 then -1
    else candidates.(Lv_stats.Rng.int rng !n_ties)

  (* Partial reset: reshuffle the values held by a random subset of
     positions, clear every freeze.  The subset is the first [k] entries of
     a random permutation and the values get a second shuffle, the draws of
     [Array.sub (Rng.permutation rng n) 0 k] and of a [k]-value shuffle.
     Both run in [candidates] and [errs], which the next iteration rewrites
     before reading. *)
  let partial_reset st inst rng fraction =
    let n = st.n in
    let k = Int.max 2 (int_of_float (ceil (fraction *. float_of_int n))) in
    if Array.length st.reset_cfg = 0 then st.reset_cfg <- Array.make n 0;
    let pos = st.candidates and vals = st.errs and cfg = st.reset_cfg in
    for i = 0 to n - 1 do
      pos.(i) <- i
    done;
    Lv_stats.Rng.shuffle_prefix rng pos n;
    Array.blit (P.config inst) 0 cfg 0 n;
    for idx = 0 to k - 1 do
      vals.(idx) <- cfg.(pos.(idx))
    done;
    Lv_stats.Rng.shuffle_prefix rng vals k;
    for idx = 0 to k - 1 do
      cfg.(pos.(idx)) <- vals.(idx)
    done;
    P.set_config inst cfg;
    Array.fill st.frozen_until 0 n 0;
    st.n_frozen <- 0

  let solve ?(params = Params.default) ?(stop = fun () -> false) ~rng inst =
    let n = P.size inst in
    let params = Params.validate ~n_vars:n params in
    let st =
      {
        n;
        frozen_until = Array.make n 0;
        n_frozen = 0;
        errs = Array.make n 0;
        candidates = Array.make (n + 1) 0;
        reset_cfg = [||];
      }
    in
    P.set_config inst (fresh_config st rng);
    let iter = ref 0 in
    let swaps = ref 0 and plateau = ref 0 and locmin = ref 0 in
    let resets = ref 0 and restarts = ref 0 in
    let since_restart = ref 0 in
    let best_cost = ref (P.cost inst) in
    let outcome = ref None in
    while Option.is_none !outcome do
      let cost = P.cost inst in
      if cost < !best_cost then best_cost := cost;
      if cost = 0 then outcome := Some (Solved (Array.copy (P.config inst)))
      else if !iter >= params.Params.max_iterations || ((!iter land 1023) = 0 && stop ())
      then outcome := Some (Exhausted !best_cost)
      else begin
        incr iter;
        incr since_restart;
        if !since_restart > params.Params.restart_limit then begin
          P.set_config inst (fresh_config st rng);
          Array.fill st.frozen_until 0 st.n 0;
          st.n_frozen <- 0;
          since_restart := 0;
          incr restarts
        end
        else begin
          let culprit = select_culprit st inst rng !iter in
          if culprit < 0 then begin
            (* Everything in error is frozen: force a reset. *)
            partial_reset st inst rng params.Params.reset_fraction;
            incr resets
          end
          else begin
            (* Best partner by min-conflict, ties uniform: the scan leaves
               the tie count in [candidates.(0)] and the ties after it. *)
            let new_cost = P.best_partners inst culprit st.candidates in
            let partner = st.candidates.(1 + Lv_stats.Rng.int rng st.candidates.(0)) in
            if new_cost < cost then begin
              P.do_swap inst culprit partner;
              incr swaps
            end
            else begin
              (* No strictly improving swap: the culprit sits at a local
                 minimum (possibly a plateau).  Walk through it with
                 probability [prob_select_loc_min], otherwise freeze it. *)
              incr locmin;
              if Lv_stats.Rng.uniform rng < params.Params.prob_select_loc_min
              then begin
                P.do_swap inst culprit partner;
                incr swaps;
                if new_cost = cost then incr plateau
              end
              else begin
                st.frozen_until.(culprit) <- !iter + params.Params.tabu_tenure;
                st.n_frozen <- st.n_frozen + 1;
                if st.n_frozen >= params.Params.reset_limit then begin
                  partial_reset st inst rng params.Params.reset_fraction;
                  incr resets
                end
              end
            end
          end
        end
      end
    done;
    let outcome = Option.get !outcome in
    {
      outcome;
      stats =
        {
          iterations = !iter;
          swaps = !swaps;
          plateau_moves = !plateau;
          local_minima = !locmin;
          resets = !resets;
          restarts = !restarts;
        };
    }
end

let solve_packed ?params ?stop ~rng (Csp.Packed ((module P), inst)) =
  let module S = Make (P) in
  S.solve ?params ?stop ~rng inst
