(* A real multi-walk race on OCaml 5 domains (paper Definition 2): several
   independent Adaptive Search walkers attack the same Costas array
   instance; the first to find a solution flips a shared flag and the others
   abandon.  Also shows the iteration-metric race, which measures the same
   multi-walk outcome machine-independently (and is what the paper tabulates).

   Run with: dune exec examples/costas_race.exe [-- SIZE WALKERS] *)

let () =
  let size = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 14 in
  let walkers = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4 in
  let params = Lv_problems.Defaults.params "costas-array" size in
  let make () = Lv_problems.Costas.pack size in

  Format.printf "Costas %d, %d walkers@." size walkers;

  (* Wall-clock race: true first-finisher-wins on parallel domains, one
     worker per walker up to the recommended domain count. *)
  let outcome =
    Lv_exec.Pool.with_pool
      ~domains:(min walkers (Domain.recommended_domain_count ()))
    @@ fun pool ->
    Lv_multiwalk.Race.wall_clock ~ctx:(Lv_context.Context.make ~pool ()) ~params
      ~seed:7 ~walkers make
  in
  Format.printf "wall-clock race:   %a@." Lv_multiwalk.Race.pp_outcome outcome;

  (* Iteration-metric race: every walker runs to completion; the multi-walk
     runtime is the minimum iteration count (machine-independent). *)
  let outcome = Lv_multiwalk.Race.iteration_metric ~params ~seed:7 ~walkers make in
  Format.printf "iteration race:    %a@." Lv_multiwalk.Race.pp_outcome outcome;

  (* Average the race gain over several seeds to see the multi-walk effect:
     E[min of k runs] vs E[single run]. *)
  let repeats = 20 in
  let single = ref 0. and raced = ref 0. in
  for r = 0 to repeats - 1 do
    let seed = 100 + (r * (walkers + 1)) in
    let rng = Lv_stats.Rng.create ~seed in
    let one = Lv_multiwalk.Run.once ~params ~rng (make ()) in
    single := !single +. float_of_int one.Lv_multiwalk.Run.iterations;
    let o = Lv_multiwalk.Race.iteration_metric ~params ~seed:(seed + 1) ~walkers make in
    raced := !raced +. float_of_int o.Lv_multiwalk.Race.min_iterations
  done;
  let single = !single /. float_of_int repeats in
  let raced = !raced /. float_of_int repeats in
  Format.printf
    "over %d repeats: mean single-run iterations %.0f, mean %d-walker race %.0f => speed-up %.2f@."
    repeats single walkers raced (single /. raced)
