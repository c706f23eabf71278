type entry = {
  run : int;
  seed : int;
  iterations : int;
  seconds : float;
  solved : bool;
}

let entry_of_observation ~run ~seed (o : Run.observation) =
  {
    run;
    seed;
    iterations = o.Run.iterations;
    seconds = o.Run.seconds;
    solved = o.Run.solved;
  }

let observation_of_entry e =
  { Run.seconds = e.seconds; iterations = e.iterations; solved = e.solved }

let to_json e =
  Lv_telemetry.Json.Obj
    [
      ("run", Lv_telemetry.Json.Int e.run);
      ("seed", Lv_telemetry.Json.Int e.seed);
      ("iterations", Lv_telemetry.Json.Int e.iterations);
      ("seconds", Lv_telemetry.Json.Float e.seconds);
      ("solved", Lv_telemetry.Json.Bool e.solved);
    ]

(* Decoding reads exactly the shape [append] writes,
   {v {"run":I,"seed":I,"iterations":I,"seconds":F,"solved":B} v}, with one
   cursor over the whole file instead of a generic [Json.t] tree per line.
   Number tokens follow [Json.of_string]: a token is the longest run of
   [0-9+-.eE] starting at a digit or '-', and an int-shaped token (no '.',
   'e' or 'E') reads as [int_of_string_opt] would; for [seconds] an
   int-shaped token becomes [float_of_int], or failing that the token
   reads as [float_of_string_opt] would (through [Json.read_float]), as
   [Json.to_float] does.  Offsets in messages count from the start of the
   line. *)

exception Malformed of string

(* One cursor walks the whole file.  [line] is where the current line
   starts; no token or literal of the line shape contains '\n', so a line
   is parsed without first finding its end, and a scan never crosses into
   the next line.  A decoded line leaves its fields in [run] .. [solved],
   with [seconds] in a one-cell float array, which holds a float unboxed.
   [int] and [int_ok] describe the last number token scanned. *)
type cursor = {
  text : string;
  mutable line : int;
  mutable pos : int;
  mutable int : int;
  mutable int_ok : bool;
  mutable run : int;
  mutable seed : int;
  mutable iterations : int;
  seconds : float array;
  mutable solved : bool;
}

let malformed c at what =
  raise (Malformed (Printf.sprintf "expected %s at offset %d" what (at - c.line)))

let rec matches_from text pos lit j =
  j = String.length lit
  || String.unsafe_get text (pos + j) = String.unsafe_get lit j
     && matches_from text pos lit (j + 1)

(* Literals of 4 to 16 bytes are compared as two overlapping words of 4
   or 8 bytes.  Both sides are read in the machine's byte order, and equal
   bytes give equal words in either order. *)
let looking_at c lit =
  let t = c.text and p = c.pos and n = String.length lit in
  p + n <= String.length t
  &&
  if n >= 8 then
    String.get_int64_ne t p = String.get_int64_ne lit 0
    && String.get_int64_ne t (p + n - 8) = String.get_int64_ne lit (n - 8)
  else if n >= 4 then
    String.get_int32_ne t p = String.get_int32_ne lit 0
    && String.get_int32_ne t (p + n - 4) = String.get_int32_ne lit (n - 4)
  else matches_from t p lit 0

let literal c lit =
  if looking_at c lit then c.pos <- c.pos + String.length lit
  else malformed c c.pos lit

(* Scans the number token at the cursor and returns its start.  The same
   pass reads the token's leading [-?[0-9]+]; [c.int_ok] tells whether
   that is the whole token and within [int] range, as [int_of_string_opt]
   would read it (over [0-9+-.eE] that function accepts exactly those),
   and [c.int] then holds the value.  Up to 18 digits cannot overflow;
   longer runs take the library call. *)
let number c =
  let t = c.text and len = String.length c.text and start = c.pos in
  let neg = start < len && String.unsafe_get t start = '-' in
  (match if start < len then String.unsafe_get t start else ' ' with
  | '-' | '0' .. '9' -> ()
  | _ -> malformed c start "a number");
  let first = if neg then start + 1 else start in
  let p = ref first and v = ref 0 in
  while
    !p < len
    &&
    match String.unsafe_get t !p with
    | '0' .. '9' as ch ->
      v := (!v * 10) + Char.code ch - 48;
      true
    | _ -> false
  do
    incr p
  done;
  let digits = !p - first in
  while
    !p < len
    &&
    match String.unsafe_get t !p with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    incr p
  done;
  c.pos <- !p;
  c.int_ok <- digits > 0 && first + digits = !p;
  if c.int_ok then
    if digits <= 18 then c.int <- (if neg then - !v else !v)
    else begin
      match int_of_string_opt (String.sub t start (!p - start)) with
      | Some i -> c.int <- i
      | None -> c.int_ok <- false
    end;
  start

let int_field c key =
  literal c key;
  let start = number c in
  if c.int_ok then c.int else malformed c start "an integer"

let seconds_field c key =
  literal c key;
  let start = number c in
  if c.int_ok then c.seconds.(0) <- float_of_int c.int
  else if not (Lv_telemetry.Json.read_float c.seconds c.text start c.pos) then
    malformed c start "a number"

let bool_field c key =
  literal c key;
  if looking_at c "true" then (c.pos <- c.pos + 4; true)
  else if looking_at c "false" then (c.pos <- c.pos + 5; false)
  else malformed c c.pos "true or false"

let line_at c =
  c.run <- int_field c "{\"run\":";
  c.seed <- int_field c ",\"seed\":";
  c.iterations <- int_field c ",\"iterations\":";
  seconds_field c ",\"seconds\":";
  c.solved <- bool_field c ",\"solved\":";
  literal c "}";
  if c.pos < String.length c.text && String.unsafe_get c.text c.pos <> '\n' then
    malformed c c.pos "end of line"

(* Calls [f] on the cursor after each line it decodes, in file order, and
   returns the length of the text they were read from: the start of a
   dropped torn final line, or the whole text. *)
let decode path text f =
  let len = String.length text in
  let c =
    {
      text;
      line = 0;
      pos = 0;
      int = 0;
      int_ok = false;
      run = 0;
      seed = 0;
      iterations = 0;
      seconds = [| 0. |];
      solved = false;
    }
  in
  (* A bad line is held back until the next non-empty line proves it is
     not the last: a torn {e final} line is the expected artifact of a
     crash mid-append and is dropped, but a bad line with entries after it
     means the file is corrupt and must not be trusted. *)
  let rec loop lineno torn =
    if c.line >= len then
      match torn with Some (_, _, start) -> start | None -> len
    else if String.unsafe_get text c.line = '\n' then begin
      c.line <- c.line + 1;
      loop (lineno + 1) torn
    end
    else begin
      (match torn with
      | Some (n, msg, _) ->
        failwith (Printf.sprintf "Checkpoint.load: %s:%d: %s" path n msg)
      | None -> ());
      c.pos <- c.line;
      match line_at c with
      | () ->
        c.line <- c.pos + 1;
        f c;
        loop (lineno + 1) None
      | exception Malformed msg ->
        let start = c.line in
        c.line <-
          (match String.index_from_opt text c.pos '\n' with
          | Some i -> i + 1
          | None -> len);
        loop (lineno + 1) (Some (lineno, msg, start))
    end
  in
  loop 1 None

let read path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let load path =
  match read path with
  | None -> []
  | Some text ->
    let entries = ref [] in
    ignore
      (decode path text (fun c ->
           let e : entry =
             {
               run = c.run;
               seed = c.seed;
               iterations = c.iterations;
               seconds = c.seconds.(0);
               solved = c.solved;
             }
           in
           entries := e :: !entries));
    List.rev !entries

type columns = {
  iterations : int array;
  seconds : float array;
  solved : bool array;
  restored : bool array;
}

let columns ~runs =
  {
    iterations = Array.make runs 0;
    seconds = Array.make runs 0.;
    solved = Array.make runs false;
    restored = Array.make runs false;
  }

let restore path ~seed cols =
  let runs = Array.length cols.restored in
  let foreign = ref None in
  (match read path with
  | None -> ()
  | Some text ->
    ignore
      (decode path text (fun c ->
           let r = c.run in
           if r >= 0 && r < runs then begin
             if c.seed <> seed + r && Option.is_none !foreign then
               foreign := Some (r, c.seed);
             cols.iterations.(r) <- c.iterations;
             cols.seconds.(r) <- c.seconds.(0);
             cols.solved.(r) <- c.solved;
             cols.restored.(r) <- true
           end)));
  !foreign

type writer = { oc : out_channel; wlock : Mutex.t }

let with_writer path f =
  (* Appends go after what [load] keeps: a torn final line is cut off,
     and a final entry whose newline never reached the file gets one, so
     the next entry starts a line of its own. *)
  let newline =
    match read path with
    | None -> false
    | Some text ->
      let kept = decode path text ignore in
      if kept < String.length text then Unix.truncate path kept;
      kept > 0 && text.[kept - 1] <> '\n'
  in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  if newline then output_char oc '\n';
  let w = { oc; wlock = Mutex.create () } in
  Fun.protect ~finally:(fun () -> close_out w.oc) (fun () -> f w)

let append w e =
  let line = Lv_telemetry.Json.to_string (to_json e) in
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () ->
      output_string w.oc line;
      output_char w.oc '\n';
      (* Flush per entry: the OS keeps flushed data if the process is
         killed, which is the crash model here (power loss would need
         fsync — deliberately not paid per run). *)
      flush w.oc)
