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
   int-shaped token becomes [float_of_int], or failing that
   [float_of_string_opt], as [Json.to_float] does.  Offsets in messages
   count from the start of the line. *)

exception Malformed of string

(* One cursor walks the whole file.  [line] is where the current line
   starts; no token or literal of the line shape contains '\n', so a line
   is parsed without first finding its end, and a scan never crosses into
   the next line.  [int] holds the last integer token read. *)
type cursor = { text : string; mutable line : int; mutable pos : int; mutable int : int }

let malformed c at what =
  raise (Malformed (Printf.sprintf "expected %s at offset %d" what (at - c.line)))

let rec matches_from text pos lit j =
  j = String.length lit
  || String.unsafe_get text (pos + j) = String.unsafe_get lit j
     && matches_from text pos lit (j + 1)

let looking_at c lit =
  c.pos + String.length lit <= String.length c.text
  && matches_from c.text c.pos lit 0

let literal c lit =
  if looking_at c lit then c.pos <- c.pos + String.length lit
  else malformed c c.pos lit

(* Scans the number token at the cursor and returns its start. *)
let number_token c =
  let start = c.pos and len = String.length c.text in
  (match if start < len then c.text.[start] else ' ' with
  | '-' | '0' .. '9' -> ()
  | _ -> malformed c start "a number");
  while
    c.pos < len
    &&
    match String.unsafe_get c.text c.pos with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  start

(* Whether the token [start, c.pos) reads as [int_of_string_opt] would
   read it; the value goes to [c.int].  Over [0-9+-] that function
   accepts exactly [-?[0-9]+] within [int] range.  Up to 18 digits cannot
   overflow; longer tokens take the library call. *)
let int_token c start =
  let stop = c.pos in
  let neg = String.unsafe_get c.text start = '-' in
  let first = if neg then start + 1 else start in
  if first = stop then false
  else if stop - first > 18 then begin
    let tok = String.sub c.text start (stop - start) in
    String.for_all (fun ch -> ch <> '.' && ch <> 'e' && ch <> 'E') tok
    &&
    match int_of_string_opt tok with
    | Some v -> c.int <- v; true
    | None -> false
  end
  else begin
    let v = ref 0 and i = ref first in
    while
      !i < stop
      &&
      match String.unsafe_get c.text !i with
      | '0' .. '9' as ch -> v := (!v * 10) + Char.code ch - 48; true
      | _ -> false
    do
      incr i
    done;
    c.int <- (if neg then - !v else !v);
    !i = stop
  end

let int_field c key =
  literal c key;
  let start = number_token c in
  if int_token c start then c.int else malformed c start "an integer"

let float_field c key =
  literal c key;
  let start = number_token c in
  if int_token c start then float_of_int c.int
  else
    match float_of_string_opt (String.sub c.text start (c.pos - start)) with
    | Some f -> f
    | None -> malformed c start "a number"

let bool_field c key =
  literal c key;
  if looking_at c "true" then (c.pos <- c.pos + 4; true)
  else if looking_at c "false" then (c.pos <- c.pos + 5; false)
  else malformed c c.pos "true or false"

let entry_at c =
  let run = int_field c "{\"run\":" in
  let seed = int_field c ",\"seed\":" in
  let iterations = int_field c ",\"iterations\":" in
  let seconds = float_field c ",\"seconds\":" in
  let solved = bool_field c ",\"solved\":" in
  literal c "}";
  if c.pos < String.length c.text && String.unsafe_get c.text c.pos <> '\n' then
    malformed c c.pos "end of line";
  { run; seed; iterations; seconds; solved }

let decode path text =
  let len = String.length text in
  let c = { text; line = 0; pos = 0; int = 0 } in
  (* A bad line is held back until the next non-empty line proves it is
     not the last: a torn {e final} line is the expected artifact of a
     crash mid-append and is dropped, but a bad line with entries after it
     means the file is corrupt and must not be trusted. *)
  let rec loop lineno entries torn =
    if c.line >= len then List.rev entries
    else if String.unsafe_get text c.line = '\n' then begin
      c.line <- c.line + 1;
      loop (lineno + 1) entries torn
    end
    else begin
      (match torn with
      | Some (n, msg) ->
        failwith (Printf.sprintf "Checkpoint.load: %s:%d: %s" path n msg)
      | None -> ());
      c.pos <- c.line;
      match entry_at c with
      | e ->
        c.line <- c.pos + 1;
        loop (lineno + 1) (e :: entries) None
      | exception Malformed msg ->
        c.line <-
          (match String.index_from_opt text c.pos '\n' with
          | Some i -> i + 1
          | None -> len);
        loop (lineno + 1) entries (Some (lineno, msg))
    end
  in
  loop 1 [] None

let load path =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    decode path text

type writer = { oc : out_channel; wlock : Mutex.t }

let with_writer path f =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
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
