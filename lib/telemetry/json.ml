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
(* Reading a float token                                               *)
(* ------------------------------------------------------------------ *)

(* 10^0 .. 10^22, each exact in a double. *)
let exact_pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let library_float dst s pos stop =
  match float_of_string_opt (String.sub s pos (stop - pos)) with
  | Some f ->
    dst.(0) <- f;
    true
  | None -> false

(* The high 64 bits of the unsigned product [a b]. *)
let[@inline] umulh a b =
  let open Int64 in
  let m = 0xFFFF_FFFFL in
  let a0 = logand a m and a1 = shift_right_logical a 32 in
  let b0 = logand b m and b1 = shift_right_logical b 32 in
  let p01 = mul a0 b1 and p10 = mul a1 b0 in
  let mid =
    add (add (shift_right_logical (mul a0 b0) 32) (logand p01 m)) (logand p10 m)
  in
  add
    (add (mul a1 b1) (shift_right_logical p01 32))
    (add (shift_right_logical p10 32) (shift_right_logical mid 32))

(* Unsigned [a < b]. *)
let[@inline] ult a b = Int64.(logxor a min_int < logxor b min_int)

(* A token the reader decides is an optional '-', digits with at most one
   '.' among them (at least one digit), then optionally 'e' or 'E', an
   optional sign and 1 to 8 digits.  Its value is [w 10^q] with [w] the
   significant digits.  Every other token goes to [float_of_string]: any
   other shape (which that function may still accept, as "+1", or
   reject), more than 19 significant digits, an exponent outside the
   table, and a result that is subnormal, out of range or too close to a
   rounding boundary to tell.

   Decided tokens take Clinger's fast path when [w <= 2^53] and
   [|q| <= 22]: both factors are exact doubles, so one IEEE operation
   rounds correctly.  Otherwise the Eisel–Lemire step: with [w] shifted
   left by [lz] so its top bit is set, and [c] the table's 128-bit [10^q],
   [X = floor (w c / 2^64)] is in [2^126, 2^128).  The table cuts [c] down
   by less than 1 for [q >= 0] and rounds it up by at most 1 for [q < 0],
   so the exact scaled value lies in [[X - 1, X + 2)].  The 54 bits above
   the low [s = 73 + top bit] bits of [X] hold the 53-bit significand and
   the rounding bit; when those low bits [D] satisfy [2 <= D <= 2^s - 3],
   every value in the interval has the same 54 bits and lies strictly
   above their truncation, so no halfway tie is possible and rounding the
   54 bits up when the last is set is exact.  The binary exponent is
   [floor (q log2 10) + 63 + top bit - lz]; [(217706 q) asr 16] is that
   floor over the whole table (test_telemetry checks both). *)
let read_float dst s pos stop =
  let i = ref pos in
  let neg = pos < stop && String.unsafe_get s pos = '-' in
  if neg then incr i;
  (* [m] holds the first 18 significant digits, [d19] the 19th; [frac]
     counts the digits after the point. *)
  let m = ref 0 and d19 = ref 0 and nd = ref 0 and digits = ref 0 in
  let frac = ref 0 and point = ref false and more = ref true in
  while !more && !i < stop do
    match String.unsafe_get s !i with
    | '0' .. '9' as ch ->
      let d = Char.code ch - 48 in
      incr digits;
      if !point then incr frac;
      if !nd > 0 || d > 0 then begin
        incr nd;
        if !nd <= 18 then m := (!m * 10) + d else if !nd = 19 then d19 := d
      end;
      incr i
    | '.' when not !point ->
      point := true;
      incr i
    | _ -> more := false
  done;
  let e = ref 0 and ok = ref (!digits > 0) in
  if !ok && !i < stop && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E')
  then begin
    incr i;
    let eneg = !i < stop && String.unsafe_get s !i = '-' in
    if eneg || (!i < stop && String.unsafe_get s !i = '+') then incr i;
    let first = !i in
    while !i < stop && String.unsafe_get s !i >= '0' && String.unsafe_get s !i <= '9' do
      e := (!e * 10) + Char.code (String.unsafe_get s !i) - 48;
      incr i
    done;
    if !i = first || !i - first > 8 then ok := false;
    if eneg then e := - !e
  end;
  if (not !ok) || !i <> stop || !nd > 19 then library_float dst s pos stop
  else if !nd = 0 then begin
    dst.(0) <- (if neg then -0. else 0.);
    true
  end
  else begin
    let q = !e - !frac in
    if !nd <= 18 && !m <= 1 lsl 53 && q >= -22 && q <= 22 then begin
      let f = float_of_int !m in
      let v = if q >= 0 then f *. exact_pow10.(q) else f /. exact_pow10.(-q) in
      dst.(0) <- (if neg then -.v else v);
      true
    end
    else if q < Powers_of_ten.min_q || q > Powers_of_ten.max_q then
      library_float dst s pos stop
    else begin
      let w =
        ref
          (if !nd = 19 then Int64.(add (mul (of_int !m) 10L) (of_int !d19))
           else Int64.of_int !m)
      and lz = ref 0 in
      (* Shift the top bit of [w] into place: [w >= 0L] while it is clear. *)
      while !w >= 0L do
        w := Int64.shift_left !w 1;
        incr lz
      done;
      let w = !w and k = 2 * (q - Powers_of_ten.min_q) in
      let c_hi = Array.unsafe_get Powers_of_ten.table k
      and c_lo = Array.unsafe_get Powers_of_ten.table (k + 1) in
      let carry = umulh w c_lo in
      let lo = Int64.add (Int64.mul w c_hi) carry in
      let hi = umulh w c_hi in
      let hi = if ult lo carry then Int64.succ hi else hi in
      let top = Int64.to_int (Int64.shift_right_logical hi 63) in
      let low_mask = Int64.pred (Int64.shift_left 1L (9 + top)) in
      let d_hi = Int64.logand hi low_mask in
      let e2 = ((217706 * q) asr 16) + 63 + top - !lz + 1023 in
      if
        (d_hi = 0L && ult lo 2L)
        || (d_hi = low_mask && not (ult lo (-2L)))
        || e2 <= 0
      then library_float dst s pos stop
      else begin
        let mant = Int64.to_int (Int64.shift_right_logical hi (9 + top)) in
        let mant = (mant + (mant land 1)) lsr 1 in
        let over = mant lsr 53 in
        let e2 = e2 + over in
        if e2 >= 0x7FF then library_float dst s pos stop
        else begin
          let bits =
            Int64.logor
              (Int64.shift_left (Int64.of_int e2) 52)
              (Int64.of_int ((mant lsr over) land ((1 lsl 52) - 1)))
          in
          let v = Int64.float_of_bits bits in
          dst.(0) <- (if neg then -.v else v);
          true
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Decoding: plain recursive descent, enough for telemetry payloads     *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* [num] is the cell [read_float] writes a float token's value to. *)
type cursor = { src : string; mutable pos : int; num : float array }

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
   'E' it is an [Int] when [int_of_string_opt] reads it. *)
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
  let as_int =
    if !int_shaped then int_of_string_opt (String.sub s start (c.pos - start))
    else None
  in
  match as_int with
  | Some i -> Int i
  | None ->
    if read_float c.num s start c.pos then Float c.num.(0)
    else parse_error "invalid number %S" (String.sub s start (c.pos - start))

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
  let c = { src = s; pos = 0; num = [| 0. |] } in
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
