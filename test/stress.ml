(* Multicore stress suite for the shared pool, kept out of [dune runtest]:

     dune exec test/stress.exe

   - 500 back-to-back n-queens 15 campaigns (40 runs, seed k) on one
     4-domain pool, each dataset CSV byte-identical to the one from a
     1-domain pool;
   - seeded bootstrap bands and held-out folds on pools of 2, 4 and 8,
     each identical to the serial result;
   - Costas 12 wall-clock races on pools of 2, 4 and 8 with more walkers
     than domains, each won by a walker that ran.

   Any exception or mismatch exits non-zero.  Pools of 4 and 8 on a
   smaller machine oversubscribe on purpose. *)

module Pool = Lv_exec.Pool
module Ctx = Lv_context.Context
module Campaign = Lv_multiwalk.Campaign
module Validate = Lv_validate.Validate

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("FAIL " ^ msg))
    fmt

let csv_path = Filename.temp_file "lv_stress" ".csv"

let campaign_csv pool seed =
  let c =
    Campaign.run ~ctx:(Ctx.make ~pool ()) ~label:"n-queens-15" ~seed ~runs:40
      (fun () -> Lv_problems.Queens.pack 15)
  in
  Lv_multiwalk.Dataset.save_csv c.Campaign.iterations csv_path;
  In_channel.with_open_bin csv_path In_channel.input_all

let campaigns () =
  let n = 500 in
  let reference =
    Pool.with_pool ~domains:1 @@ fun pool ->
    Array.init n (fun k -> campaign_csv pool (k + 1))
  in
  Pool.with_pool ~domains:4 @@ fun pool ->
  for k = 1 to n do
    if campaign_csv pool k <> reference.(k - 1) then
      fail "campaign seed %d: 4-domain CSV differs from the 1-domain one" k
  done;
  let tasks = (Pool.stats pool).Pool.tasks in
  if tasks <> n * 40 then fail "4-domain pool ran %d tasks, not %d" tasks (n * 40)

let pool_sizes = [ 2; 4; 8 ]

let validations () =
  let cores = [ 2; 4; 8; 16 ] in
  List.iter
    (fun seed ->
      let rng = Lv_stats.Rng.create ~seed in
      let xs = Array.init 120 (fun _ -> Lv_stats.Rng.exponential rng ~rate:0.1) in
      let report = Lv_core.Fit.fit ~candidates:[ Lv_core.Fit.Exponential ] xs in
      let bands ?pool () =
        Validate.bootstrap_bands ?pool ~replicates:64 ~seed ~cores ~report xs
      in
      let folds ?pool () = Validate.holdout ?pool ~folds:5 ~seed ~cores xs in
      let serial_bands = bands () and serial_folds = folds () in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains @@ fun pool ->
          if compare (bands ~pool ()) serial_bands <> 0 then
            fail "bootstrap seed %d: pool of %d differs from serial" seed domains;
          if compare (folds ~pool ()) serial_folds <> 0 then
            fail "holdout seed %d: pool of %d differs from serial" seed domains)
        pool_sizes)
    (List.init 20 succ)

let races () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains @@ fun pool ->
      let ctx = Ctx.make ~pool () in
      for seed = 1 to 50 do
        let walkers = (2 * domains) + 1 in
        let o =
          Lv_multiwalk.Race.wall_clock ~ctx ~seed ~walkers (fun () ->
              Lv_problems.Costas.pack 12)
        in
        match o.Lv_multiwalk.Race.winner with
        | Some w when o.solved && w >= 0 && w < walkers && o.min_iterations >= 0
          ->
          ()
        | _ ->
          fail "race seed %d on a pool of %d: no valid winner among %d walkers"
            seed domains walkers
      done)
    pool_sizes

let () =
  let step name f =
    let start = Unix.gettimeofday () in
    (try f ()
     with exn ->
       fail "%s raised %s\n%s" name (Printexc.to_string exn)
         (Printexc.get_backtrace ()));
    Printf.printf "%-34s %6.1f s\n%!" name (Unix.gettimeofday () -. start)
  in
  Printexc.record_backtrace true;
  step "campaigns (500, 4 vs 1 domain)" campaigns;
  step "validations (pools 2/4/8)" validations;
  step "races (pools 2/4/8)" races;
  Sys.remove csv_path;
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "stress: all clean"
