let mono () = Int64.to_float (Lv_telemetry.Clock.now_ns ()) *. 1e-9

let time f =
  let t0 = mono () in
  let r = f () in
  (r, mono () -. t0)

let quantile q = function
  | [] -> nan
  | xs -> Lv_stats.Summary.quantile (Array.of_list xs) q

let median = quantile 0.5

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size path = (Unix.stat path).Unix.st_size

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* "VmHWM" of /proc/self/status: the process's peak resident set. *)
let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* "Threads:" of /proc/self/status: every live domain is one thread. *)
let threads () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "Threads: %d" Fun.id)
  with
  | Some n -> n
  | None | (exception Sys_error _) -> 1
