(* The nesting stack is domain-local: spans opened on one domain do not
   leak into paths of events emitted by another.  Worker domains therefore
   emit with their own (usually empty) prefix, which is what you want —
   their events are concurrent with, not nested inside, the parent span. *)
let stack_key : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let path_of name =
  match Domain.DLS.get stack_key with
  | [] -> name
  | stack -> String.concat "/" (List.rev (name :: stack))

let current_path () = String.concat "/" (List.rev (Domain.DLS.get stack_key))

let record sink ~start ~path ?(fields = []) () =
  if not (Sink.is_null sink) then
    Sink.record sink
      (Event.make ~fields ~ts:(Clock.elapsed ()) ~path
         (Event.Span (Clock.seconds_between ~start ~stop:(Clock.now_ns ()))))

let run sink ~name ?(fields = fun () -> []) f =
  if Sink.is_null sink then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let path = String.concat "/" (List.rev (name :: stack)) in
    Domain.DLS.set stack_key (name :: stack);
    let start = Clock.now_ns () in
    let finish extra =
      let dur = Clock.seconds_between ~start ~stop:(Clock.now_ns ()) in
      Domain.DLS.set stack_key stack;
      Sink.record sink
        (Event.make
           ~fields:(extra @ fields ())
           ~ts:(Clock.elapsed ()) ~path (Event.Span dur))
    in
    match f () with
    | v ->
      finish [];
      v
    | exception e ->
      finish [ ("error", Json.Bool true) ];
      raise e
  end
