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
   {v {"run":I,"seed":I,"iterations":I,"seconds":F,"solved":B} v}, with a
   cursor over the line instead of a generic [Json.t] tree.  Number tokens
   follow [Json.of_string]: a token is the longest run of [0-9+-.eE]
   starting at a digit or '-', and an int-shaped token (no '.', 'e' or
   'E') goes through [int_of_string_opt]; for [seconds] an int-shaped
   token becomes [float_of_int], or failing that [float_of_string_opt], as
   [Json.to_float] does. *)

exception Malformed of string

type cursor = { line : string; mutable pos : int }

let malformed at what =
  raise (Malformed (Printf.sprintf "expected %s at offset %d" what at))

let rec matches_from line pos lit j =
  j = String.length lit
  || String.unsafe_get line (pos + j) = String.unsafe_get lit j
     && matches_from line pos lit (j + 1)

let looking_at c lit =
  c.pos + String.length lit <= String.length c.line
  && matches_from c.line c.pos lit 0

let literal c lit =
  if looking_at c lit then c.pos <- c.pos + String.length lit
  else malformed c.pos lit

let number_token c =
  let n = String.length c.line and start = c.pos in
  (match if start < n then c.line.[start] else ' ' with
  | '-' | '0' .. '9' -> ()
  | _ -> malformed start "a number");
  while
    c.pos < n
    &&
    match String.unsafe_get c.line c.pos with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  String.sub c.line start (c.pos - start)

let int_of_token tok =
  if String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') tok then None
  else int_of_string_opt tok

let int_field c key =
  literal c key;
  let start = c.pos in
  match int_of_token (number_token c) with
  | Some i -> i
  | None -> malformed start "an integer"

let float_field c key =
  literal c key;
  let start = c.pos in
  let tok = number_token c in
  match int_of_token tok with
  | Some i -> float_of_int i
  | None -> (
    match float_of_string_opt tok with
    | Some f -> f
    | None -> malformed start "a number")

let bool_field c key =
  literal c key;
  if looking_at c "true" then (c.pos <- c.pos + 4; true)
  else if looking_at c "false" then (c.pos <- c.pos + 5; false)
  else malformed c.pos "true or false"

let of_line line =
  let c = { line; pos = 0 } in
  let run = int_field c "{\"run\":" in
  let seed = int_field c ",\"seed\":" in
  let iterations = int_field c ",\"iterations\":" in
  let seconds = float_field c ",\"seconds\":" in
  let solved = bool_field c ",\"solved\":" in
  literal c "}";
  if c.pos <> String.length line then malformed c.pos "end of line";
  { run; seed; iterations; seconds; solved }

let load path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (* A bad line is held back until the next non-empty line proves it
           is not the last: a torn {e final} line is the expected artifact
           of a crash mid-append and is dropped, but a bad line with
           entries after it means the file is corrupt and must not be
           trusted. *)
        let rec loop lineno entries torn =
          match input_line ic with
          | exception End_of_file -> List.rev entries
          | "" -> loop (lineno + 1) entries torn
          | line -> (
            (match torn with
            | Some (n, msg) ->
              failwith (Printf.sprintf "Checkpoint.load: %s:%d: %s" path n msg)
            | None -> ());
            match of_line line with
            | e -> loop (lineno + 1) (e :: entries) None
            | exception Malformed msg ->
              loop (lineno + 1) entries (Some (lineno, msg)))
        in
        loop 1 [] None)

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
