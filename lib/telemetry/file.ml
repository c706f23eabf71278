(* A failed [close_out] leaves the channel open; [close_out_noerr] closes
   it.  A failed write's message does not name the file, so add it. *)
let write path f =
  let oc = open_out_bin path in
  match
    f oc;
    close_out oc
  with
  | () -> ()
  | exception Sys_error msg ->
    close_out_noerr oc;
    raise (Sys_error (path ^ ": " ^ msg))
  | exception e ->
    close_out_noerr oc;
    raise e
