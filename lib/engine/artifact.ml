(* Bump whenever an artifact format or a producing stage's algorithm
   changes: the salt lands in every key, so old artifacts miss cleanly
   instead of being deserialized wrongly or replaying stale results. *)
let code_version = "lv-engine-4"

type t = {
  dir : string;
  telemetry : Lv_telemetry.Sink.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(telemetry = Lv_telemetry.Sink.null) ~dir () =
  mkdir_p dir;
  { dir; telemetry; hits = Atomic.make 0; misses = Atomic.make 0 }

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses

let key ~stage ~params ~seed =
  let params = List.sort compare params in
  let b = Buffer.create 128 in
  Buffer.add_string b code_version;
  Buffer.add_char b '\n';
  Buffer.add_string b stage;
  Buffer.add_char b '\n';
  Buffer.add_string b (string_of_int seed);
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '\n';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    params;
  Digest.to_hex (Digest.string (Buffer.contents b))

let path t ~stage ~key ~ext =
  Filename.concat t.dir (Printf.sprintf "%s-%s.%s" stage key ext)

(* Running totals as Count events: the aggregator keeps the last snapshot
   per path, so the final events carry the run's totals. *)
let count t ~hit =
  let counter, path =
    if hit then (t.hits, "engine.cache.hit")
    else (t.misses, "engine.cache.miss")
  in
  Atomic.incr counter;
  Lv_telemetry.Sink.emit t.telemetry ~path ~fields:[]
    (Lv_telemetry.Event.Count (Atomic.get counter))

let with_cache t ~stage ~key ~ext ~load ~save compute =
  let file = path t ~stage ~key ~ext in
  let cached =
    if Sys.file_exists file then
      (* A load failure (torn write, foreign or stale file) must never fail
         the run: fall through to a recompute that overwrites it.  Resource
         exhaustion and user interrupts are not load failures. *)
      match load file with
      | v -> Some v
      | exception ((Out_of_memory | Stack_overflow | Sys.Break) as fatal) ->
        raise fatal
      | exception _ -> None
    else None
  in
  match cached with
  | Some v ->
    count t ~hit:true;
    v
  | None ->
    count t ~hit:false;
    let v = compute () in
    let tmp =
      Printf.sprintf "%s.tmp.%d" file (Unix.getpid ())
    in
    (match save v tmp with
    | () -> Sys.rename tmp file
    | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
    v
