(* A failed [close_out] leaves the channel open; [close_out_noerr] closes
   it.  A failed write's message does not name the file, so add it. *)
let with_channel path oc f =
  match
    let v = f oc in
    close_out oc;
    v
  with
  | v -> v
  | exception Sys_error msg ->
    close_out_noerr oc;
    raise (Sys_error (path ^ ": " ^ msg))
  | exception e ->
    close_out_noerr oc;
    raise e

let write path f = with_channel path (open_out_bin path) f
