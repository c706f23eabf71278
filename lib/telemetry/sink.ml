type stream = {
  oc : out_channel;
  pretty : bool;
  lock : Mutex.t;
  owned : bool;  (* close_out on close when we opened the channel *)
}

type t =
  | Null
  | Memory of { mutable events : Event.t list; lock : Mutex.t }
  | Stream of stream
  | Tee of t * t

let null = Null
let is_null = function Null -> true | _ -> false
let memory () = Memory { events = []; lock = Mutex.create () }

let console () =
  Stream { oc = stderr; pretty = true; lock = Mutex.create (); owned = false }

let jsonl path =
  Stream { oc = open_out path; pretty = false; lock = Mutex.create (); owned = true }

let tee a b =
  match (a, b) with Null, s | s, Null -> s | a, b -> Tee (a, b)

let render_line pretty ev =
  if pretty then Format.asprintf "%a\n" Event.pp ev
  else Json.to_string (Event.to_json ev) ^ "\n"

let rec record t ev =
  match t with
  | Null -> ()
  | Memory m ->
    Mutex.protect m.lock (fun () -> m.events <- ev :: m.events)
  | Stream s ->
    let line = render_line s.pretty ev in
    Mutex.protect s.lock (fun () ->
        output_string s.oc line;
        (* Console output is for live progress; keep it timely.  JSONL
           files stay buffered and are flushed on [close]. *)
        if s.pretty then flush s.oc)
  | Tee (a, b) ->
    record a ev;
    record b ev

let events = function
  | Memory m -> Mutex.protect m.lock (fun () -> List.rev m.events)
  | Null | Stream _ | Tee _ -> []

let rec close = function
  | Null | Memory _ -> ()
  | Stream s ->
    Mutex.protect s.lock (fun () ->
        if s.owned then close_out s.oc else flush s.oc)
  | Tee (a, b) ->
    close a;
    close b
