type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec encode_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then begin
      (* %.17g round-trips every float; ensure the token stays a JSON
         number (17 significant digits never print bare "1e5" without a
         mantissa, but "1" must not become ambiguous with Int on re-read —
         of_string resolves by shape, which is fine for telemetry). *)
      let s = Printf.sprintf "%.17g" f in
      Buffer.add_string buf s;
      if
        not
          (String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s)
      then Buffer.add_string buf ".0"
    end
    else Buffer.add_string buf "null" (* nan/inf have no JSON spelling *)
  | String s -> escape_to buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        encode_to buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        encode_to buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  encode_to buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Decoding: plain recursive descent, enough for telemetry payloads     *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_error "expected %c at offset %d, found %c" ch c.pos x
  | None -> parse_error "expected %c at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> parse_error "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'; advance c
      | Some '\\' -> Buffer.add_char buf '\\'; advance c
      | Some '/' -> Buffer.add_char buf '/'; advance c
      | Some 'n' -> Buffer.add_char buf '\n'; advance c
      | Some 'r' -> Buffer.add_char buf '\r'; advance c
      | Some 't' -> Buffer.add_char buf '\t'; advance c
      | Some 'b' -> Buffer.add_char buf '\b'; advance c
      | Some 'f' -> Buffer.add_char buf '\012'; advance c
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then
          parse_error "truncated \\u escape";
        let hex = String.sub c.src c.pos 4 in
        c.pos <- c.pos + 4;
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code when Uchar.is_valid code ->
          Buffer.add_utf_8_uchar buf (Uchar.of_int code)
        | _ -> parse_error "invalid \\u escape %S" hex)
      | _ -> parse_error "invalid escape at offset %d" c.pos);
      loop ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents buf

(* A number token is the longest run of [0-9+-.eE]; with no '.', 'e' or
   'E' it is an [Int] when [int_of_string_opt] reads it, and otherwise a
   [Float] when [float_of_string_opt] does. *)
let parse_number c =
  let start = c.pos and s = c.src in
  let int_shaped = ref true and more = ref true in
  while !more && c.pos < String.length s do
    match String.unsafe_get s c.pos with
    | '0' .. '9' | '-' | '+' -> advance c
    | '.' | 'e' | 'E' ->
      int_shaped := false;
      advance c
    | _ -> more := false
  done;
  let tok = String.sub s start (c.pos - start) in
  match if !int_shaped then int_of_string_opt tok else None with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> parse_error "invalid number %S" tok)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> parse_error "expected , or ] at offset %d" c.pos
      in
      List (items [])
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec pairs acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          pairs ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> parse_error "expected , or } at offset %d" c.pos
      in
      Obj (pairs [])
    end
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> parse_error "unexpected character %c at offset %d" ch c.pos

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then
    parse_error "trailing garbage at offset %d" c.pos;
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None

(* Decoding, the inverse of [to_string]: it spells nan and the infinities
   as null, so a null float reads back as nan. *)
let expected what = failwith ("JSON: expected " ^ what)

let field key v =
  match member key v with
  | Some x -> x
  | None -> failwith ("JSON: missing key " ^ key)

let float = function
  | Null -> nan
  | v -> (match to_float v with Some f -> f | None -> expected "a number")

let int v = match to_int v with Some i -> i | None -> expected "an int"
let bool v = match to_bool v with Some b -> b | None -> expected "a bool"
let string v = match to_str v with Some s -> s | None -> expected "a string"
let list = function List l -> l | _ -> expected "a list"
let fields = function Obj kvs -> kvs | _ -> expected "an object"
